#include "exec/plan.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
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

namespace {

// Per-GPU dispatch counters, resolved once per dynamic segment (the
// registry lookup locks; the per-unit inc is one relaxed add). Shared
// name family with the host backend's "sched.host.units_dispatched.*".
std::vector<metrics::Counter*> dispatch_counters(int m) {
  std::vector<metrics::Counter*> counters;
  counters.reserve(static_cast<std::size_t>(m));
  for (int g = 0; g < m; ++g) {
    counters.push_back(&metrics::counter("sched.sim.units_dispatched.gpu" +
                                         std::to_string(g)));
  }
  return counters;
}

// Dependency-driven interpreter for graph-scheduled plans (Plan::graph).
//
// Two passes. Pass 1 runs the real side effects (streamer acquires,
// kernel arithmetic, host ops) in plan order — compose_graph emits tasks
// with every dependency pointing backward, so plan order is a valid
// topological order and the arithmetic is memcmp-identical to running
// each source plan solo. It also prices everything whose cost does not
// depend on the timeline: kernel seconds and all-gather seconds/bytes.
//
// Pass 2 places the tasks on a modelled timeline, per engine:
//
//  - each GPU keeps a copy engine and a compute engine (pipelined
//    semantics: the next shard's H2D streams while the current grid
//    computes, only exposed transfer time is charged);
//  - H2D transfers go through one FluidHostLink, so the modelled rate of
//    every transfer reflects how many lanes actually stream during its
//    interval rather than a static all-lanes share;
//  - all-gathers run on one serialised collective engine: a gather edge
//    starts when its producers finish and occupies an interval of the
//    timeline without forcing every device clock through a barrier —
//    downstream kernels of *other* scopes keep computing underneath it;
//  - host ops (ALS solves) run on the host engine at zero modelled cost,
//    ordered by their dependencies.
//
// Each engine runs its tasks FIFO in plan order; across engines the
// scheduler always expands the earliest-starting ready task. That order
// is load-bearing: it makes fluid-link admissions nondecreasing in
// simulated time, so every transfer is priced by the lanes genuinely
// streaming beside it. (Walking tasks in raw plan order instead would
// clamp out-of-order admissions to the link clock and queue phantom
// contention behind transfers that in truth ran earlier.)
//
// The device clocks are committed once at the end (compute, exposed H2D,
// gather share, then a sync to the global modelled finish), so the
// platform's makespan growth equals the modelled graph makespan.
ExecReport run_plan_graph(sim::Platform& platform, Plan& plan) {
  const int m = platform.num_gpus();
  const std::size_t scopes = plan.num_scopes();
  ExecReport report;
  report.per_gpu_compute.assign(static_cast<std::size_t>(m), 0.0);
  report.scope_gpu_compute.assign(
      scopes, std::vector<double>(static_cast<std::size_t>(m), 0.0));
  report.scope_owned_rows.assign(
      scopes, std::vector<std::uint64_t>(static_cast<std::size_t>(m), 0));
  report.scope_kernel_start.assign(scopes, -1.0);
  report.scope_kernel_finish.assign(scopes, -1.0);

  const double t0 = platform.makespan();
  sim::TraceLog* trace = platform.trace();

  // ---- Pass 1: side effects and timeline-independent prices.
  std::vector<double> duration(plan.tasks.size(), 0.0);
  std::vector<std::uint64_t> edge_bytes(plan.tasks.size(), 0);
  std::vector<double> ec_total(static_cast<std::size_t>(m), 0.0);
  double gather_total = 0.0;

  // Live stream views, one per streamer: lanes of different chains
  // interleave in plan order, so the view a kernel reads is found through
  // its H2D dependency's streamer rather than "the lane's latest fetch".
  std::vector<io::ShardStreamer::View> views(plan.streamers.size());
  constexpr std::size_t kNoStreamer = static_cast<std::size_t>(-1);
  std::vector<std::size_t> task_streamer(plan.tasks.size(), kNoStreamer);

  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    Task& t = plan.tasks[id];
    switch (t.kind) {
      case TaskKind::kSpillFetch:
        assert(t.gpu >= 0 && "graph plans use static lanes");
        views[t.streamer] = plan.streamers[t.streamer]->acquire(t.stream_pos);
        task_streamer[id] = t.streamer;
        break;
      case TaskKind::kH2D:
        if (t.alloc_bytes) platform.gpu(t.gpu).alloc(t.alloc_bytes);
        for (std::size_t dep : t.deps) {
          if (task_streamer[dep] != kNoStreamer) {
            task_streamer[id] = task_streamer[dep];
          }
        }
        break;
      case TaskKind::kD2H:
        duration[id] = platform.d2h_seconds(t.transfer_bytes);
        break;
      case TaskKind::kKernel: {
        assert(t.gpu >= 0 && "graph plans use static lanes");
        const auto g = static_cast<std::size_t>(t.gpu);
        std::size_t streamer = kNoStreamer;
        for (std::size_t dep : t.deps) {
          if (task_streamer[dep] != kNoStreamer) {
            streamer = task_streamer[dep];
          }
        }
        const ExecContext ctx{platform, t.gpu,
                              streamer == kNoStreamer ? nullptr
                                                      : &views[streamer]};
        const double ec = t.kernel(ctx);
        if (t.free_bytes) platform.gpu(t.gpu).free(t.free_bytes);
        duration[id] = ec;
        ec_total[g] += ec;
        report.per_gpu_compute[g] += ec;
        report.scope_gpu_compute[t.scope][g] += ec;
        report.scope_owned_rows[t.scope][g] += t.owned_rows;
        break;
      }
      case TaskKind::kAllGather: {
        // Producers precede their gather in plan order, so the scope's
        // owned-row tally is complete by the time its edge is priced.
        std::vector<std::uint64_t> part_bytes(static_cast<std::size_t>(m), 0);
        for (int g = 0; g < m; ++g) {
          part_bytes[static_cast<std::size_t>(g)] =
              report.scope_owned_rows[t.scope][static_cast<std::size_t>(g)] *
              t.row_bytes;
        }
        duration[id] = allgather_seconds(platform, part_bytes, t.allgather);
        edge_bytes[id] = allgather_bytes(part_bytes, t.allgather);
        gather_total += duration[id];
        break;
      }
      case TaskKind::kHostOp:
        t.host_op(platform);
        break;
      case TaskKind::kBarrier:
        assert(false && "graph plans carry no barriers (they are edges)");
        break;
    }
  }

  // ---- Pass 2: dependency-driven timing.
  const std::size_t num_engines = 2 * static_cast<std::size_t>(m) + 2;
  const std::size_t gather_engine = 2 * static_cast<std::size_t>(m);
  const std::size_t host_engine = gather_engine + 1;
  auto engine_of = [&](const Task& t) -> std::size_t {
    switch (t.kind) {
      case TaskKind::kKernel:
        return static_cast<std::size_t>(m + t.gpu);
      case TaskKind::kAllGather:
        return gather_engine;
      case TaskKind::kHostOp:
        return host_engine;
      default:  // kSpillFetch / kH2D / kD2H share the lane's copy engine
        return static_cast<std::size_t>(t.gpu);
    }
  };

  std::vector<std::vector<std::size_t>> queue(num_engines);
  std::vector<std::size_t> task_engine(plan.tasks.size());
  std::vector<std::size_t> pending(plan.tasks.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(plan.tasks.size());
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    task_engine[id] = engine_of(plan.tasks[id]);
    queue[task_engine[id]].push_back(id);
    pending[id] = plan.tasks[id].deps.size();
    for (std::size_t dep : plan.tasks[id].deps) dependents[dep].push_back(id);
  }

  // Engine frontiers (absolute modelled time) and lane starting clocks.
  std::vector<double> frontier(num_engines, t0);
  std::vector<double> lane_start(static_cast<std::size_t>(m));
  for (int g = 0; g < m; ++g) {
    const auto i = static_cast<std::size_t>(g);
    lane_start[i] = platform.gpu(g).clock();
    frontier[i] = frontier[static_cast<std::size_t>(m) + i] = lane_start[i];
  }
  frontier[host_engine] = platform.host().clock();

  // One shared host link: every H2D is admitted at its modelled start and
  // completes at the fluid processor-sharing rate for the lanes streaming
  // alongside it.
  const auto& cfg = platform.config();
  sim::FluidHostLink link(cfg.host_link.bandwidth,
                          cfg.host_aggregate_bandwidth > 0.0
                              ? cfg.host_aggregate_bandwidth
                              : cfg.host_link.bandwidth *
                                    static_cast<double>(std::max(m, 1)));
  const double h2d_latency =
      cfg.host_link.latency_s / platform.fixed_cost_divisor();

  std::vector<double> finish(plan.tasks.size(), 0.0);
  std::vector<char> queued(plan.tasks.size(), 0);
  std::vector<std::size_t> head(num_engines, 0);

  auto start_of = [&](std::size_t id) {
    double s = frontier[task_engine[id]];
    for (std::size_t dep : plan.tasks[id].deps) s = std::max(s, finish[dep]);
    return s;
  };
  using Entry = std::pair<double, std::size_t>;  // (start, engine)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ready;
  // An engine's head enters the ready heap once all its dependencies have
  // finished; its start is final at that point (the engine frontier can't
  // move while an earlier head is still queued), so entries never go
  // stale and every pop is the globally earliest unexpanded task.
  auto enqueue_head = [&](std::size_t e) {
    if (head[e] >= queue[e].size()) return;
    const std::size_t id = queue[e][head[e]];
    if (pending[id] != 0 || queued[id]) return;
    queued[id] = 1;
    ready.push({start_of(id), e});
  };
  for (std::size_t e = 0; e < num_engines; ++e) enqueue_head(e);

  while (!ready.empty()) {
    const auto [start, e] = ready.top();
    ready.pop();
    const std::size_t id = queue[e][head[e]];
    const Task& t = plan.tasks[id];
    double fin = start;
    switch (t.kind) {
      case TaskKind::kH2D: {
        const std::size_t flow = link.admit(start, t.transfer_bytes);
        fin = link.completion(flow) + h2d_latency;
        if (trace != nullptr && fin > start) {
          trace->record(sim::TraceEvent{.device = t.gpu,
                                        .engine = 1,
                                        .phase = sim::Phase::kHostToDevice,
                                        .start_s = start,
                                        .duration_s = fin - start,
                                        .label = {}});
        }
        break;
      }
      case TaskKind::kD2H:
        fin = start + duration[id];
        break;
      case TaskKind::kKernel: {
        fin = start + duration[id];
        if (trace != nullptr && duration[id] > 0.0) {
          trace->record(sim::TraceEvent{
              .device = t.gpu,
              .engine = 0,
              .phase = sim::Phase::kCompute,
              .start_s = start,
              .duration_s = duration[id],
              .label = t.labelled ? shard_label(t) : std::string{}});
        }
        auto& sks = report.scope_kernel_start[t.scope];
        auto& skf = report.scope_kernel_finish[t.scope];
        if (sks < 0.0 || start - t0 < sks) sks = start - t0;
        if (fin - t0 > skf) skf = fin - t0;
        break;
      }
      case TaskKind::kAllGather:
        fin = start + duration[id];
        report.gather_edges.push_back(
            ExecReport::GatherEdge{.scope = t.scope,
                                   .mode = t.mode,
                                   .bytes = edge_bytes[id],
                                   .seconds = duration[id],
                                   .start = start - t0,
                                   .finish = fin - t0});
        if (trace != nullptr && duration[id] > 0.0) {
          trace->record(sim::TraceEvent{
              .device = -1,
              .engine = 1,
              .phase = sim::Phase::kPeerToPeer,
              .start_s = start,
              .duration_s = duration[id],
              .label = "gather-edge scope" + std::to_string(t.scope) +
                       " mode" + std::to_string(t.mode)});
        }
        break;
      default:  // kSpillFetch and kHostOp carry zero modelled cost
        break;
    }
    finish[id] = fin;
    frontier[e] = fin;
    ++head[e];
    for (std::size_t d : dependents[id]) {
      if (--pending[d] == 0) enqueue_head(task_engine[d]);
    }
    enqueue_head(e);
  }

  double global_finish = t0;
  for (const double f : finish) global_finish = std::max(global_finish, f);

  // Commit modelled time to the device clocks once: compute, exposed
  // transfer, the gather share (clamped so no clock overshoots the graph
  // makespan), then a sync to the global finish. Traces detach for the
  // commit — the per-task events above already carry the modelled
  // timeline, and the lump-sum advances would double-count it.
  if (trace != nullptr) platform.attach_trace(nullptr);
  for (int g = 0; g < m; ++g) {
    const auto i = static_cast<std::size_t>(g);
    auto& device = platform.gpu(g);
    const double lane_finish =
        std::max(frontier[i], frontier[static_cast<std::size_t>(m) + i]);
    const double exposed_h2d =
        std::max(0.0, lane_finish - lane_start[i] - ec_total[i]);
    device.advance(sim::Phase::kHostToDevice, exposed_h2d);
    device.advance(sim::Phase::kCompute, ec_total[i]);
    const double slack = std::max(0.0, global_finish - device.clock());
    device.advance(sim::Phase::kPeerToPeer, std::min(gather_total, slack));
    device.wait_until(global_finish);
  }
  if (trace != nullptr) platform.attach_trace(trace);
  return report;
}

}  // namespace

ExecReport PlanExecutor::run(Plan& plan) {
  if (backend_ == ExecBackend::kHostParallel) {
    return run_plan_host_parallel(platform_, plan);
  }
  if (plan.graph) {
    return run_plan_graph(platform_, plan);
  }
  const int m = platform_.num_gpus();
  const std::size_t scopes = plan.num_scopes();
  const double run_t0 = platform_.makespan();
  ExecReport report;
  report.per_gpu_compute.assign(static_cast<std::size_t>(m), 0.0);
  report.scope_gpu_compute.assign(
      scopes, std::vector<double>(static_cast<std::size_t>(m), 0.0));
  report.scope_owned_rows.assign(
      scopes,
      std::vector<std::uint64_t>(static_cast<std::size_t>(m), 0));

  // Completion time of each lane task, used by pipelined kernels to
  // synchronise on their H2D dependencies.
  std::vector<double> finish(plan.tasks.size(), 0.0);

  // Books one executed kernel: per-GPU totals and the per-scope splits
  // (all-gather sizing, batch attribution) always move together.
  // Concurrent lanes write disjoint [scope][gpu] slots, so this is safe
  // under parallel lane execution.
  auto charge_kernel = [&](const Task& t, int gpu, double ec) {
    const auto g = static_cast<std::size_t>(gpu);
    report.per_gpu_compute[g] += ec;
    report.scope_gpu_compute[t.scope][g] += ec;
    report.scope_owned_rows[t.scope][g] += t.owned_rows;
  };

  // Executes tasks `ids` (all belonging to GPU `gpu`) with sequential or
  // pipelined engine semantics. Lane-local state only: safe to run lanes
  // of disjoint GPUs concurrently when the plan allows it.
  auto run_lane = [&](int gpu, const std::vector<std::size_t>& ids) {
    auto& device = platform_.gpu(gpu);
    io::ShardStreamer::View view;
    bool have_view = false;
    const ExecContext ctx{platform_, gpu, &view};
    const ExecContext ctx_no_view{platform_, gpu, nullptr};

    if (!plan.pipelined) {
      for (std::size_t id : ids) {
        Task& t = plan.tasks[id];
        switch (t.kind) {
          case TaskKind::kSpillFetch:
            view = plan.streamers[t.streamer]->acquire(t.stream_pos);
            have_view = true;
            break;
          case TaskKind::kH2D:
            if (t.alloc_bytes) device.alloc(t.alloc_bytes);
            platform_.h2d(gpu, t.transfer_bytes);
            break;
          case TaskKind::kD2H:
            platform_.d2h(gpu, t.transfer_bytes);
            break;
          case TaskKind::kKernel: {
            const double ec = t.kernel(have_view ? ctx : ctx_no_view);
            std::string label;
            if (t.labelled && device.tracing()) label = shard_label(t);
            device.advance(sim::Phase::kCompute, ec, std::move(label));
            if (t.free_bytes) device.free(t.free_bytes);
            charge_kernel(t, gpu, ec);
            break;
          }
          default:
            assert(false && "global task inside a lane");
        }
        finish[id] = device.clock();
      }
      return;
    }

    // Pipelined: a copy engine and a compute engine share the device
    // clock's start; the device is charged the compute time plus only the
    // exposed (non-overlapped) transfer time at lane end.
    const double start = device.clock();
    double copy_clock = start;
    double compute_clock = start;
    double ec_total = 0.0;
    for (std::size_t id : ids) {
      Task& t = plan.tasks[id];
      switch (t.kind) {
        case TaskKind::kSpillFetch:
          view = plan.streamers[t.streamer]->acquire(t.stream_pos);
          have_view = true;
          finish[id] = copy_clock;
          break;
        case TaskKind::kH2D:
          copy_clock += platform_.h2d_seconds(t.transfer_bytes);
          finish[id] = copy_clock;
          break;
        case TaskKind::kKernel: {
          const double ec = t.kernel(have_view ? ctx : ctx_no_view);
          double landed = compute_clock;
          for (std::size_t dep : t.deps) {
            landed = std::max(landed, finish[dep]);
          }
          compute_clock = landed + ec;
          ec_total += ec;
          finish[id] = compute_clock;
          charge_kernel(t, gpu, ec);
          break;
        }
        default:
          assert(false && "task kind unsupported in a pipelined lane");
      }
    }
    const double lane_finish = std::max(copy_clock, compute_clock);
    const double exposed_h2d =
        std::max(0.0, lane_finish - start - ec_total);
    device.advance(sim::Phase::kHostToDevice, exposed_h2d);
    device.advance(sim::Phase::kCompute, ec_total);
  };

  // Dynamic dispatch: consecutive tasks up to and including a kernel form
  // one dispatch unit, handed in plan order to the earliest-idle GPU (the
  // simulated clock is the idle signal — a work queue, exactly).
  auto run_dynamic = [&](const std::vector<std::size_t>& ids) {
    using Entry = std::pair<double, int>;  // (clock, gpu)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> idle;
    for (int g = 0; g < m; ++g) idle.push({platform_.gpu(g).clock(), g});
    std::vector<metrics::Counter*> dispatched = dispatch_counters(m);
    std::vector<std::size_t> unit;
    for (std::size_t id : ids) {
      unit.push_back(id);
      if (plan.tasks[id].kind != TaskKind::kKernel) continue;
      auto [clock, g] = idle.top();
      idle.pop();
      dispatched[static_cast<std::size_t>(g)]->inc();
      run_lane(g, unit);
      unit.clear();
      idle.push({platform_.gpu(g).clock(), g});
    }
    assert(unit.empty() && "dynamic plan must end each unit with a kernel");
  };

  // Look-ahead dynamic dispatch (kDynamicLookahead): every GPU keeps a
  // copy engine and a compute engine. A dispatch unit goes to the GPU
  // whose pipeline accepts it earliest — the time its kernel could start
  // given the copy engine's backlog — so unit i+1's H2D streams while
  // unit i's grid computes. Commit follows the pipelined lane rules: only
  // the exposed (non-overlapped) transfer time is charged at the end.
  auto run_dynamic_lookahead = [&](const std::vector<std::size_t>& ids) {
    struct Pipeline {
      double start = 0.0;  // device clock when dispatch began
      double copy = 0.0;   // copy-engine frontier
      double compute = 0.0;
      double ec_total = 0.0;
    };
    std::vector<Pipeline> pipe(static_cast<std::size_t>(m));
    for (int g = 0; g < m; ++g) {
      auto& p = pipe[static_cast<std::size_t>(g)];
      p.start = p.copy = p.compute = platform_.gpu(g).clock();
    }
    io::ShardStreamer::View view;
    bool have_view = false;
    std::vector<metrics::Counter*> dispatched = dispatch_counters(m);
    metrics::Counter& lookahead_wins = metrics::counter("sched.lookahead_wins");
    // Fluid host-link contention: a transfer admitted on lane `self` at
    // time `at` shares the host memory system with every lane whose copy
    // engine is still streaming past that instant, so it is priced at the
    // processor-sharing rate for that many concurrent streams instead of
    // the static all-lanes share (sim/fluid_link.hpp).
    auto streaming_lanes_at = [&](int self, double at) {
      int lanes = 1;
      for (int g = 0; g < m; ++g) {
        if (g != self && pipe[static_cast<std::size_t>(g)].copy > at) {
          ++lanes;
        }
      }
      return lanes;
    };
    std::vector<std::size_t> unit;
    for (std::size_t id : ids) {
      unit.push_back(id);
      if (plan.tasks[id].kind != TaskKind::kKernel) continue;

      // The unit's total transfer decides where its kernel could start
      // soonest: max(compute frontier, copy frontier + H2D time), the
      // look-ahead criterion (ties to the lowest GPU id). The candidate
      // H2D time is priced per lane at that lane's fluid share.
      std::uint64_t h2d_bytes = 0;
      for (std::size_t tid : unit) {
        if (plan.tasks[tid].kind == TaskKind::kH2D) {
          h2d_bytes += plan.tasks[tid].transfer_bytes;
        }
      }
      int best = 0;
      double best_start = 0.0;
      int greedy = 0;  // what compute-frontier-only dispatch would pick
      double greedy_start = 0.0;
      for (int g = 0; g < m; ++g) {
        const auto& p = pipe[static_cast<std::size_t>(g)];
        const double h2d_seconds =
            platform_.h2d_seconds(h2d_bytes, streaming_lanes_at(g, p.copy));
        const double start_at = std::max(p.compute, p.copy + h2d_seconds);
        if (g == 0 || start_at < best_start) {
          best = g;
          best_start = start_at;
        }
        if (g == 0 || p.compute < greedy_start) {
          greedy = g;
          greedy_start = p.compute;
        }
      }
      dispatched[static_cast<std::size_t>(best)]->inc();
      // A "win" is a unit the copy-backlog criterion routed somewhere the
      // compute frontier alone would not have.
      if (best != greedy) lookahead_wins.inc();
      auto& p = pipe[static_cast<std::size_t>(best)];
      const ExecContext ctx{platform_, best, &view};
      const ExecContext ctx_no_view{platform_, best, nullptr};
      for (std::size_t tid : unit) {
        Task& t = plan.tasks[tid];
        switch (t.kind) {
          case TaskKind::kSpillFetch:
            view = plan.streamers[t.streamer]->acquire(t.stream_pos);
            have_view = true;
            finish[tid] = p.copy;
            break;
          case TaskKind::kH2D:
            p.copy += platform_.h2d_seconds(
                t.transfer_bytes, streaming_lanes_at(best, p.copy));
            finish[tid] = p.copy;
            break;
          case TaskKind::kKernel: {
            const double ec = t.kernel(have_view ? ctx : ctx_no_view);
            double landed = p.compute;
            for (std::size_t dep : t.deps) {
              landed = std::max(landed, finish[dep]);
            }
            p.compute = landed + ec;
            p.ec_total += ec;
            finish[tid] = p.compute;
            charge_kernel(t, best, ec);
            break;
          }
          default:
            assert(false && "task kind unsupported under look-ahead dispatch");
        }
      }
      unit.clear();
    }
    assert(unit.empty() && "dynamic plan must end each unit with a kernel");
    for (int g = 0; g < m; ++g) {
      auto& p = pipe[static_cast<std::size_t>(g)];
      auto& device = platform_.gpu(g);
      const double lane_finish = std::max(p.copy, p.compute);
      const double exposed_h2d =
          std::max(0.0, lane_finish - p.start - p.ec_total);
      device.advance(sim::Phase::kHostToDevice, exposed_h2d);
      device.advance(sim::Phase::kCompute, p.ec_total);
    }
  };

  // Flushes a run of lane/dynamic tasks accumulated between global tasks.
  std::vector<std::size_t> segment;
  auto flush = [&] {
    if (segment.empty()) return;
    if (plan.tasks[segment.front()].gpu == kAnyGpu) {
      if (plan.pipelined) {
        run_dynamic_lookahead(segment);
      } else {
        run_dynamic(segment);
      }
      segment.clear();
      return;
    }
    std::vector<std::vector<std::size_t>> lanes(
        static_cast<std::size_t>(m));
    for (std::size_t id : segment) {
      const int gpu = plan.tasks[id].gpu;
      assert(gpu >= 0 && gpu < m && "mixed dynamic/static segment");
      lanes[static_cast<std::size_t>(gpu)].push_back(id);
    }
    std::vector<int> active;
    for (int g = 0; g < m; ++g) {
      if (!lanes[static_cast<std::size_t>(g)].empty()) active.push_back(g);
    }
    const bool tracing = m > 0 && platform_.gpu(0).tracing();
    if (plan.parallel_lanes && active.size() > 1 && !tracing &&
        host_parallelism() > 1) {
      // Lanes of an AMPED-style plan own disjoint output rows and private
      // device state, so they run concurrently on the host pool —
      // bit-identical to the serial order (see thread_pool_test).
      std::vector<std::exception_ptr> errors(active.size());
      global_thread_pool().parallel_for(active.size(), [&](std::size_t i) {
        try {
          const int g = active[i];
          run_lane(g, lanes[static_cast<std::size_t>(g)]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    } else {
      for (int g : active) run_lane(g, lanes[static_cast<std::size_t>(g)]);
    }
    segment.clear();
  };

  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    Task& t = plan.tasks[id];
    switch (t.kind) {
      case TaskKind::kBarrier:
        flush();
        platform_.barrier();
        break;
      case TaskKind::kAllGather: {
        flush();
        // Sized from this scope's runtime row ownership only, so composed
        // plans exchange exactly what each source plan's kernels updated.
        std::vector<std::uint64_t> part_bytes(static_cast<std::size_t>(m),
                                              0);
        for (int g = 0; g < m; ++g) {
          part_bytes[static_cast<std::size_t>(g)] =
              report.scope_owned_rows[t.scope][static_cast<std::size_t>(g)] *
              t.row_bytes;
        }
        const double gather_start = platform_.makespan() - run_t0;
        const AllGatherReport ag =
            allgather_factor_rows(platform_, part_bytes, t.allgather);
        report.gather_edges.push_back(
            ExecReport::GatherEdge{.scope = t.scope,
                                   .mode = t.mode,
                                   .bytes = ag.bytes_moved,
                                   .seconds = ag.seconds,
                                   .start = gather_start,
                                   .finish = gather_start + ag.seconds});
        break;
      }
      case TaskKind::kHostOp:
        flush();
        t.host_op(platform_);
        break;
      default:
        segment.push_back(id);
    }
  }
  flush();
  return report;
}

}  // namespace amped::exec
