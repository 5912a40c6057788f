#include "exec/compose.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace amped::exec {

namespace {

bool is_dynamic(const Plan& plan) {
  for (const auto& t : plan.tasks) {
    if (t.kind == TaskKind::kBarrier || t.kind == TaskKind::kAllGather ||
        t.kind == TaskKind::kHostOp) {
      continue;
    }
    return t.gpu == kAnyGpu;
  }
  return false;
}

// The shape barrier elision understands: zero or more lane tasks, then
// exactly one barrier followed by exactly one all-gather. (This is what
// every mode scheduler lowers; anything else — host ops, mid-plan
// barriers — keeps its barriers in the fallback path.)
bool canonical_mode_shape(std::span<const Task> tasks) {
  const std::size_t n = tasks.size();
  if (n < 2 || tasks[n - 2].kind != TaskKind::kBarrier ||
      tasks[n - 1].kind != TaskKind::kAllGather) {
    return false;
  }
  return std::none_of(tasks.begin(), tasks.end() - 2, [](const Task& t) {
    return t.kind == TaskKind::kBarrier || t.kind == TaskKind::kAllGather ||
           t.kind == TaskKind::kHostOp;
  });
}

// Moves task `t` of source plan `s` into `out`, shifting its scope,
// dependency, and streamer indices by the source plan's bases.
void append_remapped(Plan& out, Task&& t, std::size_t scope_base,
                     std::size_t task_base, std::size_t streamer_base) {
  t.scope += scope_base;
  for (auto& dep : t.deps) dep += task_base;
  if (t.kind == TaskKind::kSpillFetch) t.streamer += streamer_base;
  out.tasks.push_back(std::move(t));
}

}  // namespace

Plan compose(std::span<Plan> plans, ComposeInfo* info) {
  if (plans.empty()) {
    throw std::invalid_argument("compose: no plans given");
  }

  const bool pipelined = plans.front().pipelined;
  const bool dynamic = is_dynamic(plans.front());
  bool all_disjoint = true;
  bool all_canonical = true;
  bool parallel_lanes = true;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Plan& p = plans[i];
    if (p.scopes.size() > 1) {
      throw std::invalid_argument(
          "compose: plan \"" + p.scheduler + "\" is already composed");
    }
    if (p.pipelined != pipelined || is_dynamic(p) != dynamic) {
      throw std::invalid_argument(
          "compose: plans mix dispatch disciplines (sequential/pipelined/"
          "dynamic must match across the batch)");
    }
    parallel_lanes = parallel_lanes && p.parallel_lanes;
    all_canonical = all_canonical && canonical_mode_shape(p.tasks);
    const RowScope si = p.scopes.empty() ? RowScope{} : p.scopes.front();
    for (std::size_t j = 0; j < i; ++j) {
      const Plan& q = plans[j];
      const RowScope sj = q.scopes.empty() ? RowScope{} : q.scopes.front();
      if (!disjoint(si, sj)) all_disjoint = false;
    }
  }
  // An anonymous scope (no output named) proves nothing: treat it as
  // overlapping everything so elision never reorders unknown writes.
  for (const Plan& p : plans) {
    if (p.scopes.empty() || p.scopes.front().output == nullptr) {
      all_disjoint = false;
    }
  }
  const bool elide = all_disjoint && all_canonical;

  Plan out;
  out.mode = plans.front().mode;
  out.pipelined = pipelined;
  out.parallel_lanes = parallel_lanes;
  out.scheduler = "composed(";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (i) out.scheduler += "+";
    out.scheduler += plans[i].scheduler;
  }
  out.scheduler += ")";

  ComposeInfo result;
  result.plans = plans.size();
  result.disjoint = all_disjoint;

  std::vector<Task> deferred_gathers;

  // Unit table for the dynamic interleave: every plan's lane tasks must
  // decompose exactly into kernel-terminated chains, or the contiguous
  // path below handles the batch instead (nothing may be dropped).
  struct Unit {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t payload = 0;  // H2D bytes: the merge's size signal
  };
  bool interleave = elide && dynamic;
  std::vector<std::vector<Unit>> unit_table(plans.size());
  if (interleave) {
    for (std::size_t i = 0; i < plans.size() && interleave; ++i) {
      const Plan& p = plans[i];
      Unit unit;
      for (std::size_t t = 0; t + 2 < p.tasks.size(); ++t) {
        if (p.tasks[t].kind == TaskKind::kH2D) {
          unit.payload += p.tasks[t].transfer_bytes;
        }
        if (p.tasks[t].kind == TaskKind::kKernel) {
          unit.end = t + 1;
          unit_table[i].push_back(unit);
          unit = Unit{t + 1, t + 1, 0};
        }
      }
      interleave = unit.begin + 2 == p.tasks.size();
    }
  }

  if (interleave) {
    // Dynamic batch: one merged queue feeds every GPU, so the *order* of
    // the queue is the schedule. Concatenating queue A before queue B
    // invites list-scheduling anomalies (A's straggler lands late and
    // parks three GPUs); the merge instead always emits the queue whose
    // next unit carries the most H2D bytes — LPT in spirit: heavy shards
    // surface early, small ones backfill the tail. Only plan-relative
    // order is constrained (each streamer's fetch positions must stay
    // sequential), and that is preserved: units within one plan never
    // reorder. Dependencies always point within their own unit, so each
    // unit remaps by its own offset.
    std::vector<std::size_t> scope_base(plans.size());
    std::vector<std::size_t> streamer_base(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      Plan& p = plans[i];
      scope_base[i] = out.scopes.size();
      streamer_base[i] = out.streamers.size();
      out.scopes.push_back(p.scopes.empty() ? RowScope{} : p.scopes.front());
      for (auto& s : p.streamers) out.streamers.push_back(std::move(s));
      ++result.elided_barriers;  // the epilogue barrier, dropped below
      Task gather = std::move(p.tasks.back());
      gather.scope += scope_base[i];
      deferred_gathers.push_back(std::move(gather));
    }
    std::vector<std::size_t> next_unit(plans.size(), 0);
    for (;;) {
      std::size_t pick = plans.size();
      for (std::size_t i = 0; i < plans.size(); ++i) {
        if (next_unit[i] >= unit_table[i].size()) continue;
        if (pick == plans.size() ||
            unit_table[i][next_unit[i]].payload >
                unit_table[pick][next_unit[pick]].payload) {
          pick = i;
        }
      }
      if (pick == plans.size()) break;
      const Unit unit = unit_table[pick][next_unit[pick]++];
      // Tasks keep their within-unit contiguity, so a dep (always an
      // earlier task of the same unit) remaps by the unit's offset.
      const std::size_t new_base = out.tasks.size();
      for (std::size_t t = unit.begin; t < unit.end; ++t) {
        Task task = std::move(plans[pick].tasks[t]);
        task.scope += scope_base[pick];
        for (auto& dep : task.deps) dep = new_base + (dep - unit.begin);
        if (task.kind == TaskKind::kSpillFetch) {
          task.streamer += streamer_base[pick];
        }
        out.tasks.push_back(std::move(task));
      }
    }
    for (Plan& p : plans) {
      p.tasks.clear();
      p.streamers.clear();
      p.scopes.clear();
    }
    for (Task& g : deferred_gathers) out.tasks.push_back(std::move(g));
    if (info) *info = result;
    return out;
  }

  for (Plan& p : plans) {
    const std::size_t scope_base = out.scopes.size();
    const std::size_t task_base = out.tasks.size();
    const std::size_t streamer_base = out.streamers.size();
    out.scopes.push_back(p.scopes.empty() ? RowScope{} : p.scopes.front());
    for (auto& s : p.streamers) out.streamers.push_back(std::move(s));

    if (elide) {
      // Lane tasks flow into the merged segment; the epilogue barrier is
      // elided (disjoint scopes cannot order each other's writes) and the
      // all-gather is deferred behind every plan's compute. Dropped tasks
      // sit after every referenced dependency, so the base-offset remap
      // stays valid.
      for (Task& t : p.tasks) {
        if (t.kind == TaskKind::kBarrier) {
          ++result.elided_barriers;
          continue;
        }
        if (t.kind == TaskKind::kAllGather) {
          t.scope += scope_base;
          deferred_gathers.push_back(std::move(t));
          continue;
        }
        append_remapped(out, std::move(t), scope_base, task_base,
                        streamer_base);
      }
    } else {
      // Fallback: exact back-to-back semantics. A barrier between plans
      // keeps dispatch segments separated even if a source plan ends on a
      // lane task.
      if (task_base != 0 &&
          out.tasks.back().kind != TaskKind::kBarrier &&
          out.tasks.back().kind != TaskKind::kAllGather &&
          out.tasks.back().kind != TaskKind::kHostOp) {
        Task barrier;
        barrier.kind = TaskKind::kBarrier;
        out.tasks.push_back(std::move(barrier));
      }
      const std::size_t base = out.tasks.size();
      for (Task& t : p.tasks) {
        append_remapped(out, std::move(t), scope_base, base, streamer_base);
      }
    }
    p.tasks.clear();
    p.streamers.clear();
    p.scopes.clear();
  }
  for (Task& g : deferred_gathers) out.tasks.push_back(std::move(g));

  if (info) *info = result;
  return out;
}

namespace {

// canonical_mode_shape with an optional trailing host op: lane tasks,
// barrier, all-gather[, host op] — the link shape compose_graph accepts.
bool canonical_link_shape(const Plan& plan) {
  std::span<const Task> tasks = plan.tasks;
  if (!tasks.empty() && tasks.back().kind == TaskKind::kHostOp) {
    tasks = tasks.first(tasks.size() - 1);
  }
  return canonical_mode_shape(tasks);
}

}  // namespace

Plan compose_graph(std::span<std::vector<Plan>> chains, ComposeInfo* info) {
  std::size_t total_links = 0;
  std::size_t max_links = 0;
  for (const auto& chain : chains) {
    total_links += chain.size();
    max_links = std::max(max_links, chain.size());
  }
  if (total_links == 0) {
    throw std::invalid_argument("compose_graph: no links given");
  }
  bool parallel_lanes = true;
  for (const auto& chain : chains) {
    for (const Plan& p : chain) {
      parallel_lanes = parallel_lanes && p.parallel_lanes;
      if (p.scopes.size() > 1) {
        throw std::invalid_argument("compose_graph: link \"" + p.scheduler +
                                    "\" is already composed");
      }
      if (is_dynamic(p)) {
        throw std::invalid_argument(
            "compose_graph: link \"" + p.scheduler +
            "\" uses dynamic dispatch (graph lanes must be static)");
      }
      if (!canonical_link_shape(p)) {
        throw std::invalid_argument(
            "compose_graph: link \"" + p.scheduler +
            "\" is not canonical (lane tasks, barrier, all-gather[, host "
            "op])");
      }
      if (p.scopes.empty() || p.scopes.front().output == nullptr) {
        throw std::invalid_argument(
            "compose_graph: link \"" + p.scheduler +
            "\" names no output scope (disjointness unprovable)");
      }
    }
  }
  // Chains must never touch each other's outputs: the graph orders links
  // *within* a chain by edges but runs chains against each other with no
  // ordering at all.
  for (std::size_t c = 0; c < chains.size(); ++c) {
    for (std::size_t d = 0; d < c; ++d) {
      for (const Plan& p : chains[c]) {
        for (const Plan& q : chains[d]) {
          if (!disjoint(p.scopes.front(), q.scopes.front())) {
            throw std::invalid_argument(
                "compose_graph: chains overlap (links \"" + p.scheduler +
                "\" and \"" + q.scheduler + "\" write the same rows)");
          }
        }
      }
    }
  }

  Plan out;
  out.scheduler = "graph(" + std::to_string(chains.size()) + " chains, " +
                  std::to_string(total_links) + " links)";
  out.pipelined = true;  // graph lanes always overlap copy and compute
  // Lanes run concurrently when every link's do: unordered tasks of one
  // link own disjoint rows, chains are disjoint, and edges order links.
  out.parallel_lanes = parallel_lanes;
  out.graph = true;

  ComposeInfo result;
  result.plans = total_links;
  result.disjoint = true;

  // Chain-major scope numbering; link-major task emission.
  std::vector<std::size_t> scope_base(chains.size(), 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    scope_base[c] = out.scopes.size();
    for (std::size_t l = 0; l < chains[c].size(); ++l) {
      out.scopes.push_back(chains[c][l].scopes.front());
      result.scope_chain_link.emplace_back(c, l);
    }
  }

  // Task index of each chain's most recent tail (host op, or gather when
  // the link has none): the dependency the next link's kernels gain.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> chain_tail(chains.size(), kNone);
  std::vector<std::size_t> chain_prev_hostop(chains.size(), kNone);

  for (std::size_t l = 0; l < max_links; ++l) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (l >= chains[c].size()) continue;
      Plan& p = chains[c][l];
      const std::size_t scope = scope_base[c] + l;
      const std::size_t task_base = out.tasks.size();
      const std::size_t streamer_base = out.streamers.size();
      for (auto& s : p.streamers) out.streamers.push_back(std::move(s));

      const std::size_t prev_tail = chain_tail[c];
      std::vector<std::size_t> kernels;  // new ids of this link's kernels
      std::size_t gather_id = kNone;
      for (Task& t : p.tasks) {
        if (t.kind == TaskKind::kBarrier) {
          ++result.elided_barriers;
          continue;
        }
        t.scope = scope;
        // Lane deps all point at lane tasks (which precede the barrier),
        // so the uniform offset stays valid despite the dropped barrier.
        for (auto& dep : t.deps) dep += task_base;
        if (t.kind == TaskKind::kSpillFetch) t.streamer += streamer_base;
        if (t.kind == TaskKind::kKernel && prev_tail != kNone) {
          // The factor this grid reads was rewritten by the previous
          // link's tail. Fetch/H2D stay unordered: payloads are
          // factor-independent, lanes prefetch past pending gathers.
          t.deps.push_back(prev_tail);
        }
        if (t.kind == TaskKind::kAllGather) {
          t.deps = kernels;  // gather waits for its own producers only
          gather_id = out.tasks.size();
        }
        if (t.kind == TaskKind::kHostOp) {
          t.deps.clear();
          if (gather_id != kNone) t.deps.push_back(gather_id);
          if (chain_prev_hostop[c] != kNone) {
            t.deps.push_back(chain_prev_hostop[c]);
          }
        }
        out.tasks.push_back(std::move(t));
        if (out.tasks.back().kind == TaskKind::kKernel) {
          kernels.push_back(out.tasks.size() - 1);
        }
        if (out.tasks.back().kind == TaskKind::kHostOp) {
          chain_prev_hostop[c] = out.tasks.size() - 1;
        }
      }
      chain_tail[c] = out.tasks.size() - 1;
      p.tasks.clear();
      p.streamers.clear();
      p.scopes.clear();
    }
  }

  if (info) *info = std::move(result);
  return out;
}

}  // namespace amped::exec
