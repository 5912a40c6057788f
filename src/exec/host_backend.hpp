// Real host-parallel execution of Plans: the second PlanExecutor backend.
//
// The simulator interprets a plan against modelled clocks; this backend
// *runs* it, through one interpreter for every plan. Engines are
// threads, fences are edges, and kAnyGpu units bind when pulled. The
// vocabulary maps one-to-one onto host resources, shaped like a future
// CUDA/HIP port — swap a thread for a stream and a staging buffer for
// device global memory and the structure is unchanged:
//
//   simulated concept          host realisation
//   ------------------------   ------------------------------------------
//   compute engine             one thread per GPU running its kernels and
//                              D2Hs in plan order (and, unpipelined, its
//                              fetches and H2Ds too)
//   copy engine (pipelined)    a second thread per GPU running its
//                              fetches and H2Ds in plan order; graph
//                              plans are pipelined, so they get one too
//   staging ring               an edge: GPU g stages unit u only after
//                              it finished unit u-2 (depth 2 when
//                              pipelined, else 1)
//   task dependencies          Task::deps, waited on per task; a waiting
//                              engine sleeps until that one task is done
//   Barrier / fence (legacy)   edges derived at start by derive_edges,
//                              shared with the simulator: each barrier,
//                              all-gather or host op waits for every
//                              earlier lane task, and every later lane
//                              task waits for it
//   kAnyGpu unit               bound to a GPU when that GPU's first
//                              engine pulls it from one shared cursor;
//                              acquire + stage run under the dispatch
//                              lock, the kernel outside it
//   SpillFetch                 ShardStreamer::acquire (real disk/copy I/O)
//   H2D                        copying the shard's elements out of the
//                              stream view into a ring slot (the "device
//                              global memory" the kernel reads)
//   Kernel                     the EC kernels on the staged payload — the
//                              same closures the simulator runs, so
//                              outputs are bit-identical by construction
//   D2H                        a real buffer copy of the partial-result
//                              bytes through a lane-private bounce buffer
//   AllGather                  an ordering point only: factors already
//                              live in shared host memory, so the
//                              exchange books its bytes and edges — the
//                              seam where a device port inserts peer
//                              copies
//   Barrier, AllGather, HostOp the calling thread, the coordinator, in
//                              plan order
//
// Plans that forbid parallel lanes, a one-thread pool, and plans with an
// H2D that carries no payload annotation run every task on the calling
// thread in plan order instead, with kAnyGpu units dealt round-robin —
// the same per-task step, no engine threads.
//
// Timing: each task is stamped with the run clock; after the engines are
// joined the stamps become the ExecReport wall_* fields and the trace
// (engine 0 = compute, engine 1 = copy, device -1 = coordinator). Kernel
// closures also return the cost model's predicted seconds for the
// executing device, so one host run produces (measured, predicted) pairs
// per GPU — the data bench_backend_validation turns into a calibration
// report. Fault sites: host.lane (compute-engine tasks of fixed-GPU
// lanes, and every task of a kAnyGpu unit run serially), host.copy
// (copy-engine tasks of fixed-GPU lanes), host.worker (each pull of a
// kAnyGpu unit from the shared cursor, the only site threaded units
// fire);
// the first failure cancels every engine, all threads are joined, and
// the earliest error is rethrown.
//
// Bit-identity: AMPED shards of one mode own disjoint output rows, so
// any interleaving of engine threads (and any dynamic binding of units
// to GPUs) writes disjoint memory and produces bytes equal to the serial
// order. Plans that do not guarantee this set parallel_lanes = false and
// run serially here, exactly like the simulator.
#pragma once

#include "exec/plan.hpp"

namespace amped::exec {

// Executes `plan` for real on the host. `platform` supplies device specs
// for the cost-model queries inside kernel closures (its clocks are
// never advanced, except by the plan's own HostOp closures). Called by
// PlanExecutor::run when the backend is kHostParallel.
ExecReport run_plan_host_parallel(sim::Platform& platform, Plan& plan);

}  // namespace amped::exec
