#include "exec/plan.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "exec/host_backend.hpp"
#include "sim/fluid_link.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped::exec {

std::string shard_label(const Task& t) {
  return "grid mode" + std::to_string(t.mode) + " idx[" +
         std::to_string(t.index_begin) + "," + std::to_string(t.index_end) +
         ")";
}

std::string gather_label(const Task& t) {
  return "gather-edge scope" + std::to_string(t.scope) + " mode" +
         std::to_string(t.mode);
}

bool on_coordinator(const Task& t) {
  return t.kind == TaskKind::kBarrier || t.kind == TaskKind::kAllGather ||
         t.kind == TaskKind::kHostOp;
}

ExecReport ExecReport::sized(std::size_t scopes, int num_gpus) {
  const auto m = static_cast<std::size_t>(num_gpus);
  ExecReport r;
  r.per_gpu_compute.assign(m, 0.0);
  r.per_gpu_predicted_compute.assign(m, 0.0);
  r.scope_gpu_compute.assign(scopes, std::vector<double>(m, 0.0));
  r.scope_owned_rows.assign(scopes, std::vector<std::uint64_t>(m, 0));
  r.scope_kernel_start.assign(scopes, -1.0);
  r.scope_kernel_finish.assign(scopes, -1.0);
  return r;
}

void ExecReport::widen_kernel_span(std::size_t scope, double start,
                                   double finish) {
  auto& first = scope_kernel_start[scope];
  if (first < 0.0 || start < first) first = start;
  scope_kernel_finish[scope] = std::max(scope_kernel_finish[scope], finish);
}

std::vector<std::uint64_t> gather_parts(const Task& t,
                                        const ExecReport& report) {
  std::vector<std::uint64_t> parts(report.scope_owned_rows[t.scope]);
  for (auto& p : parts) p *= t.row_bytes;
  return parts;
}

PlanEdges derive_edges(const Plan& plan, int num_gpus) {
  PlanEdges out;
  out.programs.resize(static_cast<std::size_t>(num_gpus));
  std::size_t fence = kNoTask;  // the latest coordinator task
  bool open_unit = false;
  bool open_run = false;
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    const Task& t = plan.tasks[id];
    out.dep_begin.push_back(out.edges.size());
    out.edges.insert(out.edges.end(), t.deps.begin(), t.deps.end());
    if (on_coordinator(t)) {
      // Legacy fence: waits for every lane task since the previous one,
      // and every later lane task waits for it.
      const std::size_t first = fence == kNoTask ? 0 : fence + 1;
      for (std::size_t i = first; !plan.graph && i < id; ++i) {
        out.edges.push_back(i);
      }
      fence = id;
      out.coordinator_tasks.push_back(id);
      open_unit = open_run = false;
      continue;
    }
    if (!plan.graph && fence != kNoTask) out.edges.push_back(fence);
    if (t.gpu != kAnyGpu) {
      assert(t.gpu >= 0 && t.gpu < num_gpus && "lane task names no GPU");
      out.programs[static_cast<std::size_t>(t.gpu)].push_back({.task = id});
      open_unit = open_run = false;
      continue;
    }
    if (!open_run) {
      out.run_end.push_back(out.units.size());
      for (auto& program : out.programs) {
        program.push_back({.run = out.run_end.size() - 1});
      }
      open_run = true;
    }
    if (!open_unit) out.units.emplace_back(id, id);
    out.units.back().second = id + 1;
    out.run_end.back() = out.units.size();
    // A unit is a chain of kAnyGpu tasks through its closing kernel.
    open_unit = t.kind != TaskKind::kKernel;
  }
  out.dep_begin.push_back(out.edges.size());
  return out;
}

namespace {

// The finish of a legacy fence: it orders the lane tasks around it but
// does not time them — lanes restart from the device clocks it left.
constexpr double kUntimed = -std::numeric_limits<double>::infinity();

// The one simulator interpreter; plan.hpp states its rules. Engines run
// their tasks FIFO in plan order and a heap always expands the ready
// engine head that starts earliest. Engines 0..m-1 are the GPUs' copy
// engines, m..2m-1 their compute engines (a sequential plan's only
// engines), and 2m the coordinator, whose queue also holds the first
// task of each kAnyGpu unit: the unit binds when that task is ready.
class Simulator {
 public:
  Simulator(sim::Platform& platform, Plan& plan)
      : platform_(platform), plan_(plan) {
    std::size_t unit = 0;
    for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
      const Task& t = plan.tasks[id];
      pending_[id] = edges_.deps(id).size();
      for (const auto dep : edges_.deps(id)) dependents_[dep].push_back(id);
      const bool opens_unit =
          unit < edges_.units.size() && id == edges_.units[unit].first;
      unit += opens_unit ? 1 : 0;
      if (t.gpu != kAnyGpu || on_coordinator(t) || opens_unit) {
        queue_[engine_of(t, t.gpu)].push_back(id);
      }
    }
    if (!edges_.units.empty()) {
      // Registry lookups lock, so the counters are resolved once; each
      // dispatch is then one relaxed add. Shared name family with the
      // host backend's "sched.host.units_dispatched.*".
      for (int g = 0; g < m_; ++g) {
        dispatched_.push_back(&metrics::counter(
            "sched.sim.units_dispatched.gpu" + std::to_string(g)));
      }
      if (plan.pipelined) {
        lookahead_wins_ = &metrics::counter("sched.lookahead_wins");
      }
    }
  }

  ExecReport run() {
    resync();
    run_effects(0);
    for (std::size_t e = 0; e < queue_.size(); ++e) enqueue_head(e);
    while (!ready_.empty()) {
      const std::size_t e = ready_.top().second;
      ready_.pop();
      queued_[e] = 0;
      const std::size_t id = queue_[e][head_[e]++];
      const Task& t = plan_.tasks[id];
      if (t.gpu == kAnyGpu && !on_coordinator(t)) {
        bind_unit(next_unit_++);
      } else {
        expand(id, t.gpu);
      }
      enqueue_head(e);
    }
    finish_plan();
    return std::move(report_);
  }

 private:
  std::size_t copy_engine(int g) const { return static_cast<std::size_t>(g); }
  std::size_t compute_engine(int g) const {
    return static_cast<std::size_t>(m_ + g);
  }
  // A sequential plan runs every lane task on the compute engine; a
  // pipelined one moves fetches and transfers to the copy engine. An
  // unbound kAnyGpu task waits on the coordinator, where its unit binds.
  std::size_t engine_of(const Task& t, int g) const {
    if (on_coordinator(t) || g == kAnyGpu) return coordinator_;
    return plan_.pipelined && t.kind != TaskKind::kKernel ? copy_engine(g)
                                                         : compute_engine(g);
  }

  double start_of(std::size_t id, std::size_t engine) const {
    double start = frontier_[engine];
    for (const auto d : edges_.deps(id)) start = std::max(start, finish_[d]);
    return start;
  }

  // An engine's head enters the heap once its edges are done; its start
  // is final then unless a binding moves the frontier first (expand
  // re-reads it), so every pop is the earliest unexpanded head.
  void enqueue_head(std::size_t e) {
    if (queued_[e] || head_[e] == queue_[e].size()) return;
    const std::size_t id = queue_[e][head_[e]];
    if (pending_[id] != 0) return;
    queued_[e] = 1;
    ready_.push({start_of(id, e), e});
  }

  // Restarts every GPU's engines from its device clock: at plan start and
  // after each legacy fence.
  void resync() {
    for (int g = 0; g < m_; ++g) {
      const double clock = platform_.gpu(g).clock();
      frontier_[copy_engine(g)] = frontier_[compute_engine(g)] = clock;
      ec_total_[static_cast<std::size_t>(g)] = 0.0;
    }
  }

  // Runs the side effects of the static lane tasks from `begin` on, one
  // segment (the lane tasks between two coordinator tasks) at a time. A
  // legacy plan stops at its next fence, which calls this again for the
  // segment after it once it has run itself. A graph plan's coordinator
  // tasks are edges, not fences: their host ops and gather prices run here
  // in plan order, and the whole plan's effects run up front.
  void run_effects(std::size_t begin) {
    std::vector<std::vector<std::size_t>> lanes(static_cast<std::size_t>(m_));
    for (std::size_t id = begin;; ++id) {
      const bool fence =
          id == plan_.tasks.size() || on_coordinator(plan_.tasks[id]);
      if (!fence) {
        const int g = plan_.tasks[id].gpu;
        if (g != kAnyGpu) lanes[static_cast<std::size_t>(g)].push_back(id);
        continue;
      }
      run_lanes(lanes);
      if (id == plan_.tasks.size() || !plan_.graph) return;
      for (auto& lane : lanes) lane.clear();
      Task& t = plan_.tasks[id];
      if (t.kind == TaskKind::kHostOp) {
        t.host_op(platform_);
      } else if (t.kind == TaskKind::kAllGather) {
        // Producers precede their gather in plan order, so the scope's
        // owned-row tally is complete when its edge is priced.
        // Gathers run FIFO on the coordinator, so their edges are listed
        // in execution order here and timed when placed.
        const auto parts = gather_parts(t, report_);
        duration_[id] = allgather_seconds(platform_, parts, t.allgather);
        report_.gather_edges.push_back(
            {.scope = t.scope,
             .mode = t.mode,
             .bytes = allgather_bytes(parts, t.allgather),
             .seconds = duration_[id]});
      }
    }
  }

  // One segment's static lanes, each lane's tasks in plan order: lane
  // after lane, or one lane per pool thread when the plan's lanes own
  // disjoint rows, tracing is off and the pool has threads to spare
  // (bit-identical either way; see thread_pool_test).
  void run_lanes(const std::vector<std::vector<std::size_t>>& lanes) {
    if (std::ranges::all_of(lanes, [](auto& l) { return l.empty(); })) return;
    auto run_lane = [&](std::size_t g) {
      View view;
      for (const std::size_t id : lanes[g]) {
        effect(id, static_cast<int>(g), view);
      }
    };
    if (!plan_.parallel_lanes || trace_ != nullptr ||
        host_parallelism() <= 1) {
      for (std::size_t g = 0; g < lanes.size(); ++g) run_lane(g);
      return;
    }
    std::vector<std::exception_ptr> errors(lanes.size());
    global_thread_pool().parallel_for(lanes.size(), [&](std::size_t g) {
      try {
        run_lane(g);
      } catch (...) {
        errors[g] = std::current_exception();
      }
    });
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // The stream view a lane's kernels read: its latest SpillFetch in the
  // segment (a kAnyGpu unit's own fetch), if any.
  using View = std::optional<io::ShardStreamer::View>;

  // The side effect of lane task `id` on GPU g: a fetch acquires its
  // view, an H2D meters its allocation, a kernel runs its arithmetic and
  // books its price. D2H transfers have none.
  void effect(std::size_t id, int g, View& view) {
    Task& t = plan_.tasks[id];
    auto& device = platform_.gpu(g);
    if (t.kind == TaskKind::kSpillFetch) {
      view = plan_.streamers[t.streamer]->acquire(t.stream_pos);
    } else if (t.kind == TaskKind::kH2D && t.alloc_bytes != 0) {
      device.alloc(t.alloc_bytes);
    } else if (t.kind == TaskKind::kKernel) {
      const double ec =
          t.kernel(ExecContext{platform_, g, view ? &*view : nullptr});
      if (t.free_bytes) device.free(t.free_bytes);
      duration_[id] = ec;
      const auto gi = static_cast<std::size_t>(g);
      report_.per_gpu_compute[gi] += ec;
      report_.scope_gpu_compute[t.scope][gi] += ec;
      report_.scope_owned_rows[t.scope][gi] += t.owned_rows;
    }
  }

  // Binds kAnyGpu unit u to the GPU that accepts it earliest (ties to the
  // lowest id): a sequential plan's earliest-idle GPU, a pipelined plan's
  // (look-ahead) GPU whose copy backlog lets the unit's kernel start
  // soonest. Units bind in plan order; each one's effects and placement
  // happen as it binds, since its kernel's price depends on the GPU.
  void bind_unit(std::size_t u) {
    const auto [begin, end] = edges_.units[u];
    std::uint64_t h2d_bytes = 0;
    for (std::size_t id = begin; id < end; ++id) {
      if (plan_.tasks[id].kind == TaskKind::kH2D) {
        h2d_bytes += plan_.tasks[id].transfer_bytes;
      }
    }
    int best = 0;
    int greedy = 0;  // what the compute frontier alone would pick
    double best_at = 0.0;
    double greedy_at = 0.0;
    for (int g = 0; g < m_; ++g) {
      const double compute = frontier_[compute_engine(g)];
      const double copy = frontier_[copy_engine(g)];
      const double at =
          plan_.pipelined
              ? std::max(compute,
                         copy + platform_.h2d_seconds(
                                    h2d_bytes, streaming_lanes_at(g, copy)))
              : compute;
      if (g == 0 || at < best_at) {
        best = g;
        best_at = at;
      }
      if (g == 0 || compute < greedy_at) {
        greedy = g;
        greedy_at = compute;
      }
    }
    dispatched_[static_cast<std::size_t>(best)]->inc();
    // A look-ahead "win": the copy backlog routed the unit somewhere the
    // compute frontier alone would not have.
    if (lookahead_wins_ != nullptr && best != greedy) lookahead_wins_->inc();
    View view;
    for (std::size_t id = begin; id < end; ++id) {
      effect(id, best, view);
      expand(id, best);
    }
  }

  // Lanes whose copy engine still streams past `at`, counting `self`:
  // the fluid share a look-ahead transfer is priced at.
  int streaming_lanes_at(int self, double at) const {
    int lanes = 1;
    for (int g = 0; g < m_; ++g) {
      if (g != self && frontier_[copy_engine(g)] > at) ++lanes;
    }
    return lanes;
  }

  // Places task `id` (bound to GPU g unless it is a coordinator task) at
  // the earliest time its engine and edges allow, then releases the tasks
  // waiting on it.
  void expand(std::size_t id, int g) {
    const Task& t = plan_.tasks[id];
    const std::size_t e = engine_of(t, g);
    const double start = start_of(id, e);
    const double fin = finish_of(id, g, start);
    if (t.kind == TaskKind::kKernel) {
      report_.widen_kernel_span(t.scope, start - t0_, fin - t0_);
    }
    finish_[id] = frontier_[e] = fin;
    for (const std::size_t d : dependents_[id]) {
      if (--pending_[d] == 0) {
        enqueue_head(engine_of(plan_.tasks[d], plan_.tasks[d].gpu));
      }
    }
  }

  // The rule of each task kind under each lane layout. A lane task gets
  // a price; sequential lanes commit it to the device clock as they run,
  // pipelined lanes only move their engine and commit at the next fence
  // (graph plans trace each task instead).
  double finish_of(std::size_t id, int g, double start) {
    Task& t = plan_.tasks[id];
    sim::Phase phase = sim::Phase::kHostToDevice;
    double seconds = 0.0;  // a fetch costs nothing
    std::string label;
    switch (t.kind) {
      case TaskKind::kSpillFetch:
        break;
      case TaskKind::kH2D: {
        if (plan_.graph) {
          const double fin =
              link_.completion(link_.admit(start, t.transfer_bytes)) +
              h2d_latency_;
          record(g, phase, start, fin - start, {});
          return fin;
        }
        // Look-ahead units pay the fluid share of the lanes streaming
        // beside them; every other lane the all-lanes share (0).
        const bool lookahead = plan_.pipelined && t.gpu == kAnyGpu;
        const int lanes = lookahead ? streaming_lanes_at(g, start) : 0;
        seconds = platform_.h2d_seconds(t.transfer_bytes, lanes);
        break;
      }
      case TaskKind::kD2H:
        phase = sim::Phase::kDeviceToHost;
        seconds = platform_.d2h_seconds(t.transfer_bytes);
        break;
      case TaskKind::kKernel:
        phase = sim::Phase::kCompute;
        seconds = duration_[id];
        ec_total_[static_cast<std::size_t>(g)] += seconds;
        if (t.labelled && trace_ != nullptr) label = shard_label(t);
        break;
      case TaskKind::kBarrier:
      case TaskKind::kHostOp:
        // Graph plans: a zero-cost join (host ops ran with the effects).
        return plan_.graph ? start : fence(id);
      case TaskKind::kAllGather: {
        if (!plan_.graph) return fence(id);
        // An edge: the gather occupies the coordinator for its priced
        // seconds without forcing the device clocks through a barrier.
        const double fin = start + duration_[id];
        gather_total_ += duration_[id];
        auto& edge = report_.gather_edges[gathers_placed_++];
        edge.start = start - t0_;
        edge.finish = fin - t0_;
        record(-1, sim::Phase::kPeerToPeer, start, duration_[id],
               gather_label(t));
        return fin;
      }
    }
    if (plan_.pipelined) {
      record(g, phase, start, seconds, std::move(label));
      return start + seconds;
    }
    auto& device = platform_.gpu(g);
    device.wait_until(start);  // a no-op unless an edge crosses lanes
    device.advance(phase, seconds, std::move(label));
    return device.clock();
  }

  // A graph plan's per-task trace event on the modelled timeline (engine
  // 0 = compute, 1 = copy; device -1 = coordinator).
  void record(int device, sim::Phase phase, double start, double seconds,
              std::string label) {
    if (!plan_.graph || trace_ == nullptr || !(seconds > 0.0)) return;
    trace_->record({.device = device,
                    .engine = phase == sim::Phase::kCompute ? 0 : 1,
                    .phase = phase,
                    .start_s = start,
                    .duration_s = seconds,
                    .label = std::move(label)});
  }

  // A legacy coordinator task is a fence: the lanes commit, the task runs
  // on the device clocks, and the next segment's lanes restart from them.
  double fence(std::size_t id) {
    Task& t = plan_.tasks[id];
    commit_lanes();
    if (t.kind == TaskKind::kBarrier) {
      platform_.barrier();
    } else if (t.kind == TaskKind::kAllGather) {
      // Sized from this scope's runtime row ownership only, so composed
      // plans exchange exactly what each source plan's kernels updated.
      const double gather_start = platform_.makespan() - t0_;
      const AllGatherReport ag = allgather_factor_rows(
          platform_, gather_parts(t, report_), t.allgather);
      report_.gather_edges.push_back({.scope = t.scope,
                                      .mode = t.mode,
                                      .bytes = ag.bytes_moved,
                                      .seconds = ag.seconds,
                                      .start = gather_start,
                                      .finish = gather_start + ag.seconds});
    } else {
      t.host_op(platform_);
    }
    resync();
    run_effects(id + 1);
    return kUntimed;
  }

  // Pipelined lanes (look-ahead and graph plans included) commit compute
  // plus only the transfer time compute did not hide; sequential lanes
  // have committed already. A pipelined lane's device clock has not moved
  // since the last resync, so it is still where the lane started.
  void commit_lanes() {
    if (!plan_.pipelined) return;
    for (int g = 0; g < m_; ++g) {
      const double ec = ec_total_[static_cast<std::size_t>(g)];
      auto& device = platform_.gpu(g);
      const double lane_finish =
          std::max(frontier_[copy_engine(g)], frontier_[compute_engine(g)]);
      const double exposed_h2d =
          std::max(0.0, lane_finish - device.clock() - ec);
      device.advance(sim::Phase::kHostToDevice, exposed_h2d);
      device.advance(sim::Phase::kCompute, ec);
    }
  }

  // A legacy plan's lanes commit at its end like at a fence. A graph plan
  // commits once, here: compute and exposed transfer, the gather share
  // (clamped so no clock overshoots the graph makespan), then a sync to
  // the global modelled finish. Its trace detaches for that commit — the
  // per-task events already carry the timeline.
  void finish_plan() {
    if (plan_.graph && trace_ != nullptr) platform_.attach_trace(nullptr);
    commit_lanes();
    if (!plan_.graph) return;
    double global_finish = t0_;
    for (const double f : finish_) global_finish = std::max(global_finish, f);
    for (int g = 0; g < m_; ++g) {
      auto& device = platform_.gpu(g);
      const double slack = std::max(0.0, global_finish - device.clock());
      device.advance(sim::Phase::kPeerToPeer, std::min(gather_total_, slack));
      device.wait_until(global_finish);
    }
    if (trace_ != nullptr) platform_.attach_trace(trace_);
  }

  sim::Platform& platform_;
  Plan& plan_;
  const int m_ = platform_.num_gpus();
  const PlanEdges edges_ = derive_edges(plan_, m_);
  const std::size_t coordinator_ = 2 * static_cast<std::size_t>(m_);
  const double t0_ = platform_.makespan();  // when the plan started
  sim::TraceLog* const trace_ = platform_.trace();  // or nullptr
  // Graph plans' shared host link, and its per-transfer latency.
  const sim::PlatformConfig& cfg_ = platform_.config();
  sim::FluidHostLink link_{cfg_.host_link.bandwidth,
                           cfg_.host_aggregate_bandwidth > 0.0
                               ? cfg_.host_aggregate_bandwidth
                               : cfg_.host_link.bandwidth * m_};
  const double h2d_latency_ =
      cfg_.host_link.latency_s / platform_.fixed_cost_divisor();
  ExecReport report_ = ExecReport::sized(plan_.num_scopes(), m_);

  std::vector<double> duration_ =  // kernel and gather prices
      std::vector<double>(plan_.tasks.size());
  std::vector<double> finish_ = std::vector<double>(plan_.tasks.size());
  std::vector<std::size_t> pending_ =  // open edges per task
      std::vector<std::size_t>(plan_.tasks.size());
  std::vector<std::vector<std::size_t>> dependents_ =
      std::vector<std::vector<std::size_t>>(plan_.tasks.size());
  std::size_t next_unit_ = 0;       // the next kAnyGpu unit to bind
  std::size_t gathers_placed_ = 0;  // graph gather edges timed so far

  // Per engine: its queue in plan order, the head's position, whether the
  // head is in the heap, and its frontier in absolute modelled time.
  std::vector<std::vector<std::size_t>> queue_ =
      std::vector<std::vector<std::size_t>>(coordinator_ + 1);
  std::vector<std::size_t> head_ = std::vector<std::size_t>(queue_.size());
  std::vector<char> queued_ = std::vector<char>(queue_.size());
  std::vector<double> frontier_ = std::vector<double>(queue_.size(), t0_);
  // Per GPU: compute seconds since the last resync.
  std::vector<double> ec_total_ =
      std::vector<double>(static_cast<std::size_t>(m_));
  double gather_total_ = 0.0;
  using Entry = std::pair<double, std::size_t>;  // (start, engine)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready_;

  std::vector<metrics::Counter*> dispatched_;
  metrics::Counter* lookahead_wins_ = nullptr;
};

}  // namespace

ExecReport PlanExecutor::run(Plan& plan) {
  if (backend_ == ExecBackend::kHostParallel) {
    return run_plan_host_parallel(platform_, plan);
  }
  return Simulator(platform_, plan).run();
}

}  // namespace amped::exec
