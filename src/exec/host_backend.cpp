#include "exec/host_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <ranges>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/trace.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace amped::exec {

std::string to_string(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kSimulated:
      return "sim";
    case ExecBackend::kHostParallel:
      return "host";
  }
  return "?";
}

ExecBackend parse_backend(const std::string& name) {
  if (name == "sim" || name == "simulated") return ExecBackend::kSimulated;
  if (name == "host" || name == "host-parallel") {
    return ExecBackend::kHostParallel;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "' (expected: sim, host)");
}

namespace {

// Lane-private "device global memory": the staged copy of one shard
// payload plus the view the kernel reads it through. A CUDA port swaps
// the owned tensor for a device allocation; the view indirection (data +
// absolute base) is unchanged.
struct DeviceBuffer {
  CooTensor elements;
  io::ShardStreamer::View view;
};

// The real H2D: copies elements [begin, end) of the stream view into
// `buf`. After this the kernel reads `buf`, never the stream view, so
// the streamer is free to recycle its buffer for the next position.
void stage_payload(const io::ShardStreamer::View& src_view, nnz_t begin,
                   nnz_t end, DeviceBuffer& buf) {
  const CooTensor& src = *src_view.data;
  assert(begin >= src_view.base && end <= src_view.base + src.nnz() &&
         "H2D payload outside its stream view");
  const auto lo = static_cast<std::ptrdiff_t>(begin - src_view.base);
  const auto hi = static_cast<std::ptrdiff_t>(end - src_view.base);
  std::vector<std::vector<index_t>> cols(src.num_modes());
  for (std::size_t mode = 0; mode < src.num_modes(); ++mode) {
    const auto idx = src.indices(mode);
    cols[mode].assign(idx.begin() + lo, idx.begin() + hi);
  }
  const auto vals = src.values();
  buf.elements = CooTensor::from_parts(
      src.dims(), std::move(cols),
      std::vector<value_t>(vals.begin() + lo, vals.begin() + hi));
  buf.view = {&buf.elements, begin};
}

bool annotated(const Task& t) { return t.payload_end > t.payload_begin; }

bool stages(const Task& t) {
  return t.kind == TaskKind::kSpillFetch || t.kind == TaskKind::kH2D;
}

// Host-side state of one simulated GPU. The view and the staging ring are
// written only by the engine that runs the GPU's copy-engine tasks, the
// bounce buffers only by its compute engine, the ring bookkeeping only by
// its binder, and `bound` only under Interpreter::mu_.
struct Lane {
  std::optional<io::ShardStreamer::View> view;  // the latest SpillFetch
  DeviceBuffer ring[2];          // staging ring, depth 1 or 2
  std::size_t units = 0;         // units bound so far
  int open_slot = -1;            // ring slot of the unit being bound
  std::size_t slot_reader[2] = {kNoTask, kNoTask};  // last kernel per slot
  // Compute-engine tasks in bind order; kNoTask closes the lane.
  std::vector<std::size_t> bound;
  std::vector<unsigned char> bounce_src, bounce_dst;
};

// The one host interpreter (see host_backend.hpp for the engine model).
// Tasks record only their start, finish and predicted seconds while the
// plan runs; every report total and trace event is derived from those
// after the engines are joined.
class Interpreter {
 public:
  Interpreter(sim::Platform& platform, Plan& plan)
      : platform_(platform), plan_(plan) {
    if (!edges_.units.empty()) {
      // Dispatch decisions are an observable the scheduler work cares
      // about: one counter per GPU, resolved once (registration locks).
      for (int g = 0; g < m_; ++g) {
        dispatched_.push_back(&metrics::counter(
            "sched.host.units_dispatched.gpu" + std::to_string(g)));
      }
    }
  }

  ExecReport run() {
    if (serial_) {
      run_serial();
    } else {
      run_threaded();
    }
    finish_report();
    return std::move(report_);
  }

 private:
  // Waiter slots: 2g = GPU g's binder, 2g + 1 = its compute engine, 2m =
  // the coordinator (also the serial caller).
  std::size_t binder_slot(int g) const {
    return 2 * static_cast<std::size_t>(g);
  }
  std::size_t compute_slot(int g) const { return binder_slot(g) + 1; }
  std::size_t coordinator_slot() const { return binder_slot(m_); }

  // Whether a lane task belongs to its GPU's copy engine (else compute).
  bool on_copy_engine(const Task& t) const {
    return plan_.pipelined && stages(t);
  }
  // Whether GPU g's binder runs the task itself (else its compute engine).
  bool on_binder(const Task& t) const {
    return !two_engines_ || on_copy_engine(t);
  }
  bool cancelled() const { return cancel_.load(std::memory_order_relaxed); }

  // Plans that forbid parallel lanes, a one-thread pool, or an unannotated
  // H2D (whose kernel reads the shared stream view): every task runs on
  // the calling thread in plan order — a valid topological order for
  // every plan — with kAnyGpu units dealt round-robin.
  void run_serial() {
    for (std::size_t u = 0; u < edges_.units.size(); ++u) {
      const auto g = u % static_cast<std::size_t>(m_);
      dispatched_[g]->inc();
      const auto [begin, end] = edges_.units[u];
      for (std::size_t id = begin; id < end; ++id) {
        gpu_of_[id] = static_cast<int>(g);
      }
    }
    for (std::size_t id = 0; id < plan_.tasks.size(); ++id) {
      const Task& t = plan_.tasks[id];
      if (!on_coordinator(t)) {
        bind(t.gpu == kAnyGpu ? gpu_of_[id] : t.gpu, id, coordinator_slot());
      }
      run_task(id, gpu_of_[id], coordinator_slot());
    }
  }

  // The only place engine threads start. Each GPU with work gets a binder
  // thread (its copy engine when the plan is pipelined, else its only
  // engine) and, when pipelined, a compute thread; the calling thread is
  // the coordinator. The first failure cancels every engine; all threads
  // are joined before the earliest error is rethrown.
  void run_threaded() {
    std::vector<std::thread> threads;
    auto guarded = [this](auto body) {
      return [this, body] {
        try {
          body();
        } catch (...) {
          fail();
        }
      };
    };
    // A thread that fails to start cancels the run like any other error.
    guarded([&] {
      for (int g = 0; g < m_; ++g) {
        if (edges_.programs[static_cast<std::size_t>(g)].empty()) continue;
        threads.emplace_back(guarded([this, g] { run_binder(g); }));
        if (two_engines_) {
          threads.emplace_back(guarded([this, g] { run_compute(g); }));
        }
      }
    })();
    guarded([this] {
      for (std::size_t id : edges_.coordinator_tasks) {
        if (!run_task(id, -1, coordinator_slot())) return;
      }
    })();
    for (auto& th : threads) th.join();
    if (error_) std::rethrow_exception(error_);
  }

  void run_binder(int g) {
    const std::size_t slot = binder_slot(g);
    for (const auto& item : edges_.programs[static_cast<std::size_t>(g)]) {
      if (cancelled()) break;
      if (item.run != kNoTask) {
        if (!pull(g, item.run)) break;
      } else if (!bind(g, item.task, slot) ||
                 (on_binder(plan_.tasks[item.task]) &&
                  !run_task(item.task, g, slot))) {
        break;
      }
    }
    {
      std::lock_guard lock(mu_);
      lanes_[static_cast<std::size_t>(g)].bound.push_back(kNoTask);
    }
    waiters_[compute_slot(g)].cv.notify_one();
  }

  // Dynamic dispatch: GPU g takes kAnyGpu units from the shared cursor
  // until run `run` is exhausted, so load balances by measured speed.
  // Acquire + stage happen under the dispatch lock (streamer positions
  // are taken in order, and position p's view dies at acquire(p+1) — the
  // lock serialises exactly that window); the rest runs outside it.
  bool pull(int g, std::size_t run) {
    Lane& lane = lanes_[static_cast<std::size_t>(g)];
    const std::size_t slot = binder_slot(g);
    for (;;) {
      // The ring edge, taken before the pull so a GPU never holds a unit
      // it cannot stage yet.
      const std::size_t reader = lane.slot_reader[lane.units % depth_];
      if (reader != kNoTask && !wait_for({&reader, 1}, slot)) return false;
      std::size_t u;
      {
        std::lock_guard lock(dispatch_);
        if (cancelled()) return false;
        // `>=`: one cursor serves every run, and another GPU may already
        // have moved it into the next run.
        if (next_unit_ >= edges_.run_end[run]) return true;
        u = next_unit_++;
        AMPED_FAULT_POINT("host.worker");
        dispatched_[static_cast<std::size_t>(g)]->inc();
        for (std::size_t id = edges_.units[u].first;
             id < edges_.units[u].second; ++id) {
          if (!bind(g, id, slot)) return false;
          if (stages(plan_.tasks[id]) && !run_task(id, g, slot)) return false;
        }
      }
      for (std::size_t id = edges_.units[u].first;
           id < edges_.units[u].second; ++id) {
        const Task& t = plan_.tasks[id];
        if (!stages(t) && on_binder(t) && !run_task(id, g, slot)) return false;
      }
    }
  }

  void run_compute(int g) {
    Lane& lane = lanes_[static_cast<std::size_t>(g)];
    Waiter& w = waiters_[compute_slot(g)];
    for (std::size_t i = 0;; ++i) {
      std::size_t id;
      {
        std::unique_lock lock(mu_);
        while (i == lane.bound.size() && !cancelled()) {
          w.on = kBound;
          w.cv.wait(lock);
        }
        if (cancelled()) return;
        id = lane.bound[i];
      }
      if (id == kNoTask || !run_task(id, g, compute_slot(g))) return;
    }
  }

  // Binds lane task `id` to GPU g: records the GPU, assigns ring slots,
  // and hands compute tasks to the compute engine. Staging into a
  // slot waits for the last kernel that read it — the depth-2 ring as an
  // edge (GPU g stages unit u only after it finished unit u-2).
  bool bind(int g, std::size_t id, std::size_t slot) {
    const Task& t = plan_.tasks[id];
    Lane& lane = lanes_[static_cast<std::size_t>(g)];
    gpu_of_[id] = g;
    if (t.kind == TaskKind::kH2D && annotated(t)) {
      lane.open_slot = static_cast<int>(lane.units % depth_);
      const std::size_t reader = lane.slot_reader[lane.units % depth_];
      if (reader != kNoTask && !wait_for({&reader, 1}, slot)) return false;
      slot_of_[id] = lane.open_slot;
    }
    if (t.kind == TaskKind::kKernel) {
      slot_of_[id] = lane.open_slot;
      if (lane.open_slot >= 0) lane.slot_reader[lane.units % depth_] = id;
      lane.open_slot = -1;
      ++lane.units;
    }
    if (two_engines_ && !on_copy_engine(t)) {
      {
        std::lock_guard lock(mu_);
        lane.bound.push_back(id);
      }
      waiters_[compute_slot(g)].cv.notify_one();
    }
    return true;
  }

  // The one body per task kind: waits for the task's edges, runs it,
  // stamps it and marks it done. `g` is the GPU a lane task is bound to
  // (-1 on the coordinator), `slot` the caller's waiter slot. False = the
  // run was cancelled.
  bool run_task(std::size_t id, int g, std::size_t slot) {
    Task& t = plan_.tasks[id];
    start_[id] = clock_.seconds();  // a barrier's span is its wait
    if (!wait_for(edges_.deps(id), slot)) return false;
    // Threaded kAnyGpu units fire host.worker at their pull instead; run
    // serially they fire host.lane, like a sequential lane.
    if (const bool fixed = t.gpu != kAnyGpu; g >= 0 && (fixed || serial_)) {
      AMPED_FAULT_POINT(fixed && on_copy_engine(t) ? "host.copy"
                                                   : "host.lane");
    }
    if (t.kind != TaskKind::kBarrier) start_[id] = clock_.seconds();
    Lane* lane = g >= 0 ? &lanes_[static_cast<std::size_t>(g)] : nullptr;
    switch (t.kind) {
      case TaskKind::kSpillFetch:
        lane->view = plan_.streamers[t.streamer]->acquire(t.stream_pos);
        break;
      case TaskKind::kH2D: {
        // Priced at the fluid share for the lanes staging right now.
        int streaming = 1;
        if (const int s = slot_of_[id]; s >= 0) {
          assert(lane->view && "annotated H2D with no stream view");
          streaming = streaming_.fetch_add(1, std::memory_order_relaxed) + 1;
          stage_payload(*lane->view, t.payload_begin, t.payload_end,
                        lane->ring[s]);
          streaming_.fetch_sub(1, std::memory_order_relaxed);
        }
        predicted_[id] = platform_.h2d_seconds(t.transfer_bytes, streaming);
        break;
      }
      case TaskKind::kD2H:
        // Partial results already live in host memory; move the same
        // byte count through a bounce buffer so the transfer is a real
        // copy of the plan's size — the slot a device port fills with a
        // genuine device-to-host DMA.
        lane->bounce_src.resize(t.transfer_bytes);
        lane->bounce_dst.resize(t.transfer_bytes);
        if (t.transfer_bytes) {
          std::memcpy(lane->bounce_dst.data(), lane->bounce_src.data(),
                      t.transfer_bytes);
        }
        break;
      case TaskKind::kKernel: {
        // The unit's staged payload; without one (baseline lowerings, run
        // serially) the kernel reads the stream view like the simulator.
        const int s = slot_of_[id];
        const io::ShardStreamer::View* view =
            s >= 0 ? &lane->ring[s].view
                   : (!two_engines_ && lane->view ? &*lane->view : nullptr);
        predicted_[id] = t.kernel(ExecContext{platform_, g, view});
        report_.scope_owned_rows[t.scope][static_cast<std::size_t>(g)] +=
            t.owned_rows;
        break;
      }
      case TaskKind::kBarrier:  // the fence edges already joined the lanes
        break;
      case TaskKind::kAllGather: {
        // Factor mirrors are shared host memory, so there is nothing to
        // exchange — the task contributes its ordering edges and its
        // books. A device port replaces this with real peer copies sized
        // scope_owned_rows[scope][g] * row_bytes, like the simulator.
        report_.gather_edges.push_back(
            {.scope = t.scope,
             .mode = t.mode,
             .bytes = allgather_bytes(gather_parts(t, report_), t.allgather),
             .start = start_[id]});
        break;
      }
      case TaskKind::kHostOp:
        t.host_op(platform_);
        break;
    }
    finish_[id] = clock_.seconds();
    mark_done(id);
    return true;
  }

  // Blocks until every task in `ids` is done. Scans from the back: the
  // latest producers finish last, so a fence over many lane tasks costs
  // about one wakeup per GPU. False = cancelled.
  bool wait_for(std::span<const std::size_t> ids, std::size_t slot) {
    Waiter& w = waiters_[slot];
    std::unique_lock lock(mu_);
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      while (!done_[*it] && !cancelled()) {
        w.on = *it;
        w.cv.wait(lock);
      }
    }
    return !cancelled();
  }

  void mark_done(std::size_t id) {
    std::lock_guard lock(mu_);
    done_[id] = 1;
    for (auto& w : waiters_) {
      if (w.on == id) w.cv.notify_one();
    }
  }

  // Call from a catch block: records the in-flight exception (first
  // writer wins, so it is the earliest) and wakes every engine to unwind.
  void fail() noexcept {
    std::lock_guard lock(mu_);
    if (!error_) error_ = std::current_exception();
    cancel_.store(true, std::memory_order_relaxed);
    for (auto& w : waiters_) w.cv.notify_all();
  }

  // Folds the per-task stamps into the report and the trace. Trace events
  // land on the shared log's clock, so events from every plan run in one
  // job share one monotone time base, on the rows the simulator uses:
  // engine 0 = compute, 1 = copy, device -1 = coordinator.
  void finish_report() {
    const auto m = static_cast<std::size_t>(m_);
    const double trace_base =
        trace_ != nullptr ? trace_->host_now() - clock_.seconds() : 0.0;
    auto& kernel_seconds = metrics::histogram("exec.host.kernel_seconds");
    auto gather = report_.gather_edges.begin();
    for (std::size_t id = 0; id < plan_.tasks.size(); ++id) {
      const Task& t = plan_.tasks[id];
      const double el = finish_[id] - start_[id];
      const auto g = static_cast<std::size_t>(std::max(gpu_of_[id], 0));
      sim::Phase phase = sim::Phase::kHostCompute;
      std::string label;
      switch (t.kind) {
        case TaskKind::kSpillFetch:
          report_.wall_spill_fetch += el;
          if (trace_) label = "fetch pos" + std::to_string(t.stream_pos);
          break;
        case TaskKind::kH2D:
          report_.wall_h2d += el;
          report_.predicted_h2d += platform_.h2d_seconds(t.transfer_bytes);
          report_.predicted_h2d_fluid += predicted_[id];
          phase = sim::Phase::kHostToDevice;
          if (trace_) {
            label = "h2d scope" + std::to_string(t.scope) + " [" +
                    std::to_string(t.payload_begin) + "," +
                    std::to_string(t.payload_end) + ")";
          }
          break;
        case TaskKind::kD2H:
          report_.wall_d2h += el;
          phase = sim::Phase::kDeviceToHost;
          if (trace_) label = "d2h scope" + std::to_string(t.scope);
          break;
        case TaskKind::kKernel: {
          report_.per_gpu_compute[g] += el;
          report_.per_gpu_predicted_compute[g] += predicted_[id];
          report_.scope_gpu_compute[t.scope][g] += el;
          report_.widen_kernel_span(t.scope, start_[id], finish_[id]);
          kernel_seconds.record_seconds(el);
          phase = sim::Phase::kCompute;
          if (trace_ && t.labelled) label = shard_label(t);
          break;
        }
        case TaskKind::kBarrier:
          phase = sim::Phase::kSync;
          label = "barrier";
          break;
        case TaskKind::kAllGather:
          report_.wall_allgather += el;
          gather->seconds = el;
          gather->finish = finish_[id];
          ++gather;
          phase = sim::Phase::kPeerToPeer;
          if (trace_) label = gather_label(t);
          break;
        case TaskKind::kHostOp:
          report_.wall_host_op += el;
          label = "host op";
          break;
      }
      if (trace_ != nullptr) {
        trace_->record({.device = on_coordinator(t) ? -1 : gpu_of_[id],
                        .engine = on_copy_engine(t) ? 1 : 0,
                        .phase = phase,
                        .start_s = trace_base + start_[id],
                        .duration_s = el,
                        .label = std::move(label)});
      }
    }

    // wall_sync, one definition for every plan: at each join — a
    // coordinator task, over its edges into lane tasks, and the end of the
    // run, over the lane tasks after the last coordinator task — every GPU
    // feeding the join waits from its last feeding task's finish until
    // the join's last feeding task finishes.
    std::vector<double> last(m);
    auto join = [&](auto&& ids) {
      std::fill(last.begin(), last.end(), -1.0);
      double all = -1.0;
      for (const std::size_t id : ids) {
        if (on_coordinator(plan_.tasks[id])) continue;
        auto& l = last[static_cast<std::size_t>(gpu_of_[id])];
        l = std::max(l, finish_[id]);
        all = std::max(all, finish_[id]);
      }
      for (const double l : last) {
        if (l >= 0.0) report_.wall_sync += all - l;
      }
    };
    for (const std::size_t id : edges_.coordinator_tasks) {
      join(edges_.deps(id));
    }
    join(std::views::iota(
        edges_.coordinator_tasks.empty() ? 0
                                         : edges_.coordinator_tasks.back() + 1,
        plan_.tasks.size()));
    report_.wall_seconds = clock_.seconds();
  }

  sim::Platform& platform_;
  Plan& plan_;
  const int m_ = platform_.num_gpus();
  const WallTimer clock_;  // run clock: stamps, spans and gather edges
  sim::TraceLog* const trace_ = platform_.trace();  // or nullptr
  ExecReport report_ = ExecReport::sized(plan_.num_scopes(), m_);
  const bool serial_ =
      !plan_.parallel_lanes || host_parallelism() <= 1 ||
      std::ranges::any_of(plan_.tasks, [](const Task& t) {
        return t.kind == TaskKind::kH2D && !annotated(t);
      });
  // Each GPU runs a copy and a compute engine; the staging ring depth.
  const bool two_engines_ = !serial_ && plan_.pipelined;
  const std::size_t depth_ = two_engines_ ? 2 : 1;

  const PlanEdges edges_ = derive_edges(plan_, m_);
  std::vector<metrics::Counter*> dispatched_;
  std::mutex dispatch_;  // guards the shared cursor; in-order acquire/stage
  std::size_t next_unit_ = 0;

  const std::size_t n_ = plan_.tasks.size();
  std::vector<Lane> lanes_ = std::vector<Lane>(static_cast<std::size_t>(m_));
  std::vector<int> gpu_of_ = std::vector<int>(n_, -1);  // bound GPU
  // Ring slot of an H2D / kernel, -1 = none.
  std::vector<int> slot_of_ = std::vector<int>(n_, -1);
  std::vector<double> start_ = std::vector<double>(n_);  // run-clock stamps
  std::vector<double> finish_ = std::vector<double>(n_);
  // Cost-model seconds (kernels, H2Ds).
  std::vector<double> predicted_ = std::vector<double>(n_);
  std::atomic<int> streaming_{0};  // lanes inside a staging copy right now

  // Dependency state. Each engine sleeps on its own condition variable,
  // naming the one task it waits for, so a completion wakes only the
  // engines that need it.
  struct Waiter {
    std::condition_variable cv;
    std::size_t on = kNoTask;
  };
  static constexpr std::size_t kBound = kNoTask - 1;  // waits for Lane::bound
  std::mutex mu_;
  std::vector<char> done_ = std::vector<char>(n_);
  // Slots 2g = GPU g's binder, 2g + 1 = its compute engine, 2m = the
  // coordinator.
  std::vector<Waiter> waiters_ =
      std::vector<Waiter>(2 * static_cast<std::size_t>(m_) + 1);
  std::atomic<bool> cancel_{false};
  std::exception_ptr error_;
};

}  // namespace

ExecReport run_plan_host_parallel(sim::Platform& platform, Plan& plan) {
  return Interpreter(platform, plan).run();
}

}  // namespace amped::exec
