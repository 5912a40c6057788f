// Execution-plan layer: one task IR + one executor for every execution
// strategy in the repo.
//
// Before this layer, AMPED's MTTKRP hand-rolled three streaming loops
// (static, dynamic-queue, pipelined) and every baseline runner in
// src/baselines/ reimplemented its own stream-and-compute loop against
// sim::Platform. A Plan expresses all of them in one vocabulary: a list
// of Tasks — SpillFetch (host read-ahead hand-off), H2D, Kernel, D2H,
// Barrier, AllGather, HostOp — with explicit dependencies, grouped into
// per-GPU lanes. PlanExecutor is the only code that touches device
// clocks: it runs any plan's real arithmetic (through the kernel
// closures) and charges simulated time exactly as the bespoke loops did,
// so outputs AND simulated times are bit-identical to the pre-engine
// implementations (asserted in tests/exec_plan_test.cpp against the
// frozen reference in exec/reference_loop.hpp).
//
// One interpreter per backend runs every plan: the simulator here, the
// host engine threads in exec/host_backend.hpp. Both execute the same
// edges (derive_edges below): Task::deps plus, for legacy (non-graph)
// plans, fences that order every lane task against the barriers,
// all-gathers and host ops around it. The simulator's rules, all read off
// Plan::graph, Plan::pipelined and kAnyGpu:
//  - engines: each GPU has a copy engine and a compute engine, or only
//    the compute engine when the plan is sequential (!pipelined); the
//    coordinator runs barriers, all-gathers and host ops. Engines run
//    their tasks FIFO in plan order, and a heap always expands the ready
//    head that starts earliest (start = max(engine frontier, edges)).
//  - binding: static tasks stay on their lane. kAnyGpu units bind in
//    plan order, each once its first task is ready, to the GPU that
//    accepts it earliest (ties to the lowest id): the
//    earliest-idle GPU when sequential (the simulated clock is the work
//    queue), the GPU whose pipeline lets the unit's kernel start soonest
//    given its copy backlog when pipelined (look-ahead dispatch).
//  - H2D price: the static all-lanes share for sequential and static
//    pipelined lanes; the fluid share of the lanes still streaming for
//    look-ahead units; one FluidHostLink for graph plans.
//  - commit: sequential lanes advance the device clock per task (the
//    paper's additive stream-then-compute, Fig. 7); pipelined lanes
//    charge compute plus only the exposed (non-overlapped) transfer time
//    at each fence (ablation A6); graph plans commit once at plan end,
//    then their gather share and a sync to the modelled finish.
//  - coordinator: a legacy barrier or all-gather is a fence that runs
//    platform.barrier() / allgather_factor_rows on the committed clocks,
//    after which the lanes restart from the device clocks. In a graph
//    plan an all-gather is an edge occupying the coordinator engine for
//    its priced seconds, and barriers and host ops cost nothing.
//  - side effects: static lanes run their fetches, allocations and
//    kernel arithmetic segment by segment (the lane tasks between
//    coordinator tasks) before the segment is timed: one lane after
//    another, each lane's tasks in plan order, or the lanes concurrently
//    on the host pool when the plan allows parallel lanes and tracing is
//    off. kAnyGpu kernels run as they bind, since their price depends on
//    the GPU.
//
// Since PR 5 a plan also names the output rows it updates (RowScope) and
// every task carries a scope index. A solo plan has one scope; composed
// plans (exec/compose.hpp) carry one scope per source plan so barriers
// can be elided across provably disjoint outputs and each all-gather is
// sized from its own scope's row ownership.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/allgather.hpp"
#include "exec/backend.hpp"
#include "io/shard_stream.hpp"
#include "sim/platform.hpp"
#include "tensor/types.hpp"

namespace amped::exec {

enum class TaskKind {
  kSpillFetch,  // acquire the next shard view from a ShardStreamer
  kH2D,         // host -> device payload transfer (copy engine)
  kKernel,      // one grid: real arithmetic + simulated grid seconds
  kD2H,         // device -> host transfer (partial results)
  kBarrier,     // inter-GPU barrier
  kAllGather,   // factor-row exchange sized from runtime row ownership
  kHostOp,      // host-side step (e.g. the equal-nnz CPU merge)
};

// Tasks with this GPU id are dispatched at run time to the earliest-idle
// GPU (dynamic-queue scheduling); all other tasks name their lane.
inline constexpr int kAnyGpu = -1;

// The output rows a plan updates: the identity of the output buffer plus
// the row range touched within it. Two scopes over different buffers (or
// non-overlapping rows of the same buffer) can never write the same
// memory, which is the disjointness proof compose() relies on to elide
// barriers between source plans.
struct RowScope {
  const void* output = nullptr;  // identity of the output buffer
  index_t row_begin = 0;         // rows [begin, end) updated within it
  index_t row_end = 0;
};

inline bool disjoint(const RowScope& a, const RowScope& b) {
  if (a.output != b.output) return true;
  return a.row_end <= b.row_begin || b.row_end <= a.row_begin;
}

// Runtime context handed to kernel closures. `view` is the shard view
// produced by the lane's most recent SpillFetch task (nullptr when the
// plan streams nothing).
struct ExecContext {
  sim::Platform& platform;
  int gpu = 0;
  const io::ShardStreamer::View* view = nullptr;
};

// Performs the real arithmetic of one grid and returns the simulated
// seconds the grid occupies the device (including launch overhead).
using KernelFn = std::function<double(const ExecContext&)>;

struct Task {
  TaskKind kind = TaskKind::kKernel;
  int gpu = kAnyGpu;
  // Index into Plan::scopes (0 for solo plans). Kernel ownership and
  // all-gather sizing are accounted per scope so composed plans keep
  // per-tensor numbers separable.
  std::size_t scope = 0;
  // Explicit dependencies (indices into Plan::tasks). Lane program order
  // is an implicit dependency on each engine; `deps` carries the
  // cross-engine edges (kernel <- its H2D, H2D <- its SpillFetch) that
  // the pipelined interpreter synchronises on.
  std::vector<std::size_t> deps;

  // kSpillFetch: acquire position `stream_pos` of plan.streamers[streamer].
  std::size_t streamer = 0;
  std::size_t stream_pos = 0;

  // kH2D / kD2H: link payload; alloc_bytes is charged to the device
  // memory meter before the transfer (0 = no allocation tracked).
  std::uint64_t transfer_bytes = 0;
  std::uint64_t alloc_bytes = 0;
  // kH2D: the absolute nonzero range of the lane's current stream view
  // this transfer stages (begin == end when the lowering did not
  // annotate it). The simulator only needs transfer_bytes; the host
  // backend uses the range to perform the copy for real — staging
  // exactly these elements into a device buffer the kernel then reads.
  nnz_t payload_begin = 0;
  nnz_t payload_end = 0;

  // kKernel.
  KernelFn kernel;
  std::uint64_t free_bytes = 0;  // device memory released after the grid
  index_t owned_rows = 0;        // output rows this grid updates (AllGather sizing)
  // Trace metadata: when `labelled`, the executor emits the shard label
  // "grid mode<mode> idx[begin,end)" on the compute event (built only
  // when a trace is attached, like the pre-engine loop did).
  bool labelled = false;
  std::size_t mode = 0;
  index_t index_begin = 0;
  index_t index_end = 0;

  // kAllGather: part_bytes[g] = rows owned by GPU g so far * row_bytes.
  AllGatherAlgo allgather = AllGatherAlgo::kRing;
  std::uint64_t row_bytes = 0;

  // kHostOp.
  std::function<void(sim::Platform&)> host_op;
};

// Trace label of a labelled kernel task ("grid mode<M> idx[b,e)"),
// matching the pre-engine loop verbatim. Shared by the simulated and
// host backends so the two traces of one plan carry identical kernel
// labels and line up row-for-row in Perfetto.
std::string shard_label(const Task& t);
// Trace label of an all-gather edge ("gather-edge scope<S> mode<M>"), on
// both backends.
std::string gather_label(const Task& t);

// Whether a task runs on the coordinator (barriers, all-gathers, host
// ops) rather than on a GPU lane.
bool on_coordinator(const Task& t);

inline constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

struct Plan {
  std::string scheduler;  // name of the scheduler that lowered this plan
  std::size_t mode = 0;   // output mode (reporting only)
  // Lane interpretation: sequential (false) or double-buffered (true).
  // For kAnyGpu tasks the flag selects look-ahead dynamic dispatch.
  bool pipelined = false;
  // Whether per-GPU lanes may run on the host thread pool. Only safe when
  // lanes never touch the same output rows (AMPED's shard partition
  // guarantees this; the equal-nnz chunks do not).
  bool parallel_lanes = false;
  // Graph-scheduled plan (exec/compose.hpp compose_graph): all-gathers
  // are dependency edges (Task::deps names their kernel producers, and
  // downstream kernels name the gather) instead of plan-suffix phases,
  // and coordinator tasks are not fences. Legacy plans (graph == false)
  // keep their bit-identical pre-engine semantics: both backends derive
  // their fences as edges (derive_edges).
  bool graph = false;
  // Row-ownership scopes; Task::scope indexes this. Empty means one
  // anonymous scope (solo plans lowered before composition existed).
  std::vector<RowScope> scopes;
  std::vector<Task> tasks;
  // Shard sources owned by the plan; SpillFetch tasks index into this.
  std::vector<std::unique_ptr<io::ShardStreamer>> streamers;

  std::size_t num_scopes() const {
    return scopes.empty() ? 1 : scopes.size();
  }
};

// What the executor learned while running a plan.
struct ExecReport {
  // One record per executed all-gather edge, in execution order. Scope
  // rows used to aggregate gather bytes at plan end only; reporting them
  // per edge keeps per-iteration (and per-tensor) gather cost attributable
  // in composed and graph-scheduled plans (--report-json emits these).
  // `start`/`finish` are modelled timeline offsets under the simulator and
  // run-clock offsets under the host backend.
  struct GatherEdge {
    std::size_t scope = 0;
    std::size_t mode = 0;
    std::uint64_t bytes = 0;   // total bytes crossing any link
    double seconds = 0.0;      // modelled (sim) or measured (host) cost
    double start = 0.0;
    double finish = 0.0;
  };
  std::vector<GatherEdge> gather_edges;

  // Start/finish of each scope's kernel span (first kernel start, last
  // kernel finish) on the same time base as GatherEdge, for every plan on
  // both backends; -1 for scopes that ran no kernel.
  std::vector<double> scope_kernel_start;
  std::vector<double> scope_kernel_finish;

  // EC seconds charged per GPU, summed over scopes (sized to the
  // platform's GPU count; idle GPUs report 0.0). Feeds
  // ModeBreakdown::per_gpu_compute. Under the simulated backend these
  // are modelled grid seconds; under the host backend they are measured
  // wall seconds of the same kernels.
  std::vector<double> per_gpu_compute;
  // Per-scope splits of the same accounting: [scope][gpu]. Solo plans
  // have exactly one scope; composed plans report one row per source
  // plan so batch callers can attribute compute per tensor.
  std::vector<std::vector<double>> scope_gpu_compute;
  // Output rows owned per scope per GPU, accumulated from executed
  // kernels; sizes each scope's all-gather.
  std::vector<std::vector<std::uint64_t>> scope_owned_rows;

  // Host-backend measurements (all zero under the simulator). Wall
  // seconds are real elapsed time on the executing machine; the
  // predicted columns are what the cost model priced the same work at,
  // collected from the very same kernel closures, so a single host run
  // yields directly comparable (measured, predicted) pairs.
  double wall_seconds = 0.0;     // whole-plan wall time
  double wall_spill_fetch = 0.0; // summed stream-view acquisition
  double wall_h2d = 0.0;         // summed payload staging copies
  double wall_d2h = 0.0;         // summed result copy-back
  // Summed join stalls, one definition for every plan: at each join (a
  // barrier, all-gather or host op over its edges into lane tasks, and
  // the run's end over the lane tasks after the last of those), each GPU
  // feeding it waits from its last feeding task's finish until the
  // join's last feeding task finishes.
  double wall_sync = 0.0;
  double wall_allgather = 0.0;   // summed all-gather steps
  double wall_host_op = 0.0;     // summed host-side ops
  // Modelled EC seconds per GPU for the kernels each GPU actually ran
  // (same shape as per_gpu_compute). For a deterministic (static)
  // assignment this equals the simulator's per_gpu_compute exactly.
  std::vector<double> per_gpu_predicted_compute;
  double predicted_h2d = 0.0;    // modelled seconds of the staged transfers
  // Fluid-contention prediction of the same transfers: each staged copy is
  // priced at the processor-sharing rate for the number of lanes actually
  // streaming when it started (host backend samples a live counter). The
  // static predicted_h2d column prices every transfer at the all-lanes
  // share; comparing the two against wall_h2d is how
  // bench_backend_validation validates the fluid model.
  double predicted_h2d_fluid = 0.0;

  // A report for a run of a plan with `scopes` scopes on `num_gpus` GPUs:
  // per-GPU and per-scope accounting at zero, kernel spans at -1.
  static ExecReport sized(std::size_t scopes, int num_gpus);
  // Widens scope `scope`'s kernel span to cover [start, finish].
  void widen_kernel_span(std::size_t scope, double start, double finish);
};

// The dependency structure both backends run a plan by, derived in one
// pass over its tasks.
struct PlanEdges {
  // An entry of a GPU's program: one of its static lane tasks, or a run
  // of kAnyGpu units it takes units from.
  struct Item {
    std::size_t task = kNoTask;
    std::size_t run = kNoTask;
  };
  // Edges in CSR form: Task::deps plus, for legacy (non-graph) plans, the
  // fences — each coordinator task waits for every lane task since the
  // previous one, and every later lane task waits for it.
  std::vector<std::size_t> dep_begin;
  std::vector<std::size_t> edges;
  std::vector<std::size_t> coordinator_tasks;  // plan order
  // kAnyGpu dispatch units ([begin, end) plan ranges: a chain of kAnyGpu
  // tasks through its closing kernel) and, per run of consecutive units,
  // the end of the run in `units`.
  std::vector<std::pair<std::size_t, std::size_t>> units;
  std::vector<std::size_t> run_end;
  std::vector<std::vector<Item>> programs;  // per GPU, plan order

  std::span<const std::size_t> deps(std::size_t id) const {
    return {edges.data() + dep_begin[id], edges.data() + dep_begin[id + 1]};
  }
};

PlanEdges derive_edges(const Plan& plan, int num_gpus);

// Bytes each GPU contributes to all-gather `t`: the rows its kernels of
// t's scope have updated so far, times the row size.
std::vector<std::uint64_t> gather_parts(const Task& t,
                                        const ExecReport& report);

// Runs any plan on the platform. `backend` selects the machine: the
// clock-charging simulator (default; the rules in the file comment) or
// the real host-parallel executor (exec/host_backend.hpp) — same outputs,
// measured instead of modelled time.
class PlanExecutor {
 public:
  explicit PlanExecutor(sim::Platform& platform,
                        ExecBackend backend = ExecBackend::kSimulated)
      : platform_(platform), backend_(backend) {}

  ExecReport run(Plan& plan);

 private:
  sim::Platform& platform_;
  ExecBackend backend_;
};

}  // namespace amped::exec
