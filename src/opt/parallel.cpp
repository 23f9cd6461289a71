#include "opt/parallel.h"

#include <algorithm>
#include <atomic>

#include "obs/obs.h"
#include "opt/search_core.h"
#include "util/thread_pool.h"

namespace amg::opt {
namespace {

/// Fan-out granularity: prefixes are expanded until there are at least
/// this many subtree tasks per worker (load-balancing headroom for
/// subtrees whose pruning behaviour differs wildly).
constexpr std::size_t kMinTasksPerThread = 4;

/// Enumerate all order prefixes of length `depth` in lexicographic order.
std::vector<std::vector<std::size_t>> prefixes(std::size_t n, std::size_t depth) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> cur;
  std::vector<bool> used(n, false);
  auto rec = [&](auto&& self) -> void {
    if (cur.size() == depth) {
      out.push_back(cur);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      used[i] = true;
      cur.push_back(i);
      self(self);
      cur.pop_back();
      used[i] = false;
    }
  };
  rec(rec);
  return out;
}

}  // namespace

OptimizeResult optimizeOrderParallel(const BuildPlan& plan,
                                     const RatingWeights& weights,
                                     const ParallelOptimizeOptions& options) {
  const std::size_t n = plan.steps.size();
  const std::size_t threads =
      options.threads == 0 ? util::defaultThreadCount() : options.threads;

  // Degenerate cases: nothing to fan out, or explicitly serial.
  if (threads <= 1 || n <= 2) return optimizeOrder(plan, weights, options.search);

  // Fan-out depth: expand prefixes until there are enough subtree tasks to
  // keep every worker busy even when pruning empties some subtrees early.
  // Depth 2 yields n*(n-1) tasks, plenty for any sane thread count.
  const std::size_t wantTasks = threads * kMinTasksPerThread;
  const std::size_t depth = n >= wantTasks ? 1 : 2;
  const auto tasks = prefixes(n, depth);

  detail::SharedSearch shared(options.search);
  std::vector<detail::LocalBest> results(tasks.size());
  const db::Module start = detail::seedModule(plan);

  obs::Span span("opt.search");
  span.arg("plan", plan.name)
      .arg("steps", static_cast<std::uint64_t>(n))
      .arg("tasks", static_cast<std::uint64_t>(tasks.size()));

  std::atomic<std::size_t> nextTask{0};
  util::ThreadPool pool(std::min(threads, tasks.size()));
  span.arg("threads", static_cast<std::uint64_t>(pool.size()));
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.run([&] {
      // Each worker claims unstarted subtrees until none remain — the
      // "work stealing": fast workers drain the queue for slow ones.
      std::size_t claimed = 0;
      for (std::size_t t = nextTask.fetch_add(1, std::memory_order_relaxed);
           t < tasks.size();
           t = nextTask.fetch_add(1, std::memory_order_relaxed)) {
        ++claimed;
        obs::Span tspan("opt.subtree");
        tspan.arg("task", static_cast<std::uint64_t>(t));
        const std::vector<std::size_t>& prefix = tasks[t];
        std::vector<std::size_t> current;
        std::vector<bool> used(n, false);
        db::Module partial = start;  // worker-private copy of the seed
        for (const std::size_t i : prefix) {
          const Step& s = plan.steps[i];
          compact::compact(partial, s.object, s.dir, s.options);
          current.push_back(i);
          used[i] = true;
        }
        detail::searchSubtree(plan, weights, shared, current, used, partial,
                              results[t]);
      }
      // Per-worker utilization: how evenly the claim loop spread the work.
      OBS_HIST("opt.worker.tasks", claimed);
    });
  }
  pool.wait();

  // Deterministic merge: same (score, lexicographic order) rule as the
  // in-subtree acceptance, over all subtree winners.
  detail::LocalBest* win = nullptr;
  for (detail::LocalBest& r : results) {
    if (!r.best) continue;
    if (!win || win->accepts(r.score, r.order)) win = &r;
  }
  if (!win)
    throw Error("optimizeOrderParallel: no complete order evaluated (budget too small?)");
  return OptimizeResult{
      std::move(*win->best), std::move(win->order), win->score,
      std::min(shared.evaluated.load(), shared.maxOrders), shared.pruned.load()};
}

}  // namespace amg::opt
