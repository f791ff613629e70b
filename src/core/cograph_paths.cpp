#include "core/cograph_paths.hpp"

#include <algorithm>
#include <utility>

#include "graph/bfs.hpp"
#include "util/check.hpp"

namespace lptsp {

namespace {

/// A path cover as linked vertex chains: each path is a (head, tail) pair
/// and succ[v] is v's successor on its path (-1 at a tail), so joining
/// covers splices O(paths) links instead of copying vertex lists.
struct Cover {
  std::vector<std::pair<int, int>> paths;
  int vertices = 0;
};

class CoverBuilder {
 public:
  CoverBuilder(const Cotree& tree, bool complement, int n)
      : tree_(tree), complement_(complement), succ_(static_cast<std::size_t>(n), -1) {}

  Cover fold(int node_id) {
    const Cotree::Node& node = tree_.node(node_id);
    if (node.is_leaf) return {{{node.vertex, node.vertex}}, 1};
    const bool join = node.is_series != complement_;
    Cover accumulated;
    for (const int child : node.children) {
      Cover cover = fold(child);
      if (accumulated.vertices == 0) {
        accumulated = std::move(cover);
      } else if (join) {
        accumulated = join_covers(std::move(accumulated), std::move(cover));
      } else {
        // Disjoint union: covers are independent.
        accumulated.paths.insert(accumulated.paths.end(), cover.paths.begin(), cover.paths.end());
        accumulated.vertices += cover.vertices;
      }
    }
    return accumulated;
  }

  [[nodiscard]] PathPartition paths(const Cover& cover) const {
    PathPartition partition;
    partition.paths.reserve(cover.paths.size());
    for (const auto& [head, tail] : cover.paths) {
      std::vector<int>& path = partition.paths.emplace_back();
      for (int v = head; v != -1; v = succ_[static_cast<std::size_t>(v)]) path.push_back(v);
    }
    return partition;
  }

 private:
  /// Cover of the join of two sides: every vertex of one side is adjacent
  /// to every vertex of the other, so any A/B junction is an edge.
  Cover join_covers(Cover a, Cover b) {
    if (a.paths.size() < b.paths.size()) std::swap(a, b);
    const std::size_t a_paths = a.paths.size();
    std::size_t next_a = 0;  // next unused A path
    int head = -1;
    int tail = -1;
    const auto attach = [&](int first, int last) {
      if (head == -1) {
        head = first;
      } else {
        succ_[static_cast<std::size_t>(tail)] = first;
      }
      tail = last;
    };
    const auto attach_next_a = [&] {
      attach(a.paths[next_a].first, a.paths[next_a].second);
      ++next_a;
    };
    // Splice one single-vertex B segment in after the next A path.
    const auto thread_single = [&](int v) {
      const int after = succ_[static_cast<std::size_t>(v)];
      attach_next_a();
      attach(v, v);
      return after;
    };
    if (a_paths > static_cast<std::size_t>(b.vertices)) {
      // More A paths than B vertices: thread B's vertices singly between
      // b.vertices + 1 A paths; the other A paths stay as they are.
      for (const auto& path : b.paths) {
        for (int v = path.first; v != -1;) v = thread_single(v);
      }
      attach_next_a();
    } else {
      // Cut B's paths into exactly a_paths segments (a_paths - |B paths|
      // extra cuts, which fit since a_paths <= b.vertices) and interleave
      // them with A's paths: one path.
      std::size_t extra_cuts = a_paths - b.paths.size();
      for (const auto& [first, last] : b.paths) {
        int v = first;
        for (; extra_cuts > 0 && v != last; --extra_cuts) v = thread_single(v);
        attach_next_a();
        attach(v, last);
      }
    }
    succ_[static_cast<std::size_t>(tail)] = -1;
    Cover out{{{head, tail}}, a.vertices + b.vertices};
    for (; next_a < a_paths; ++next_a) out.paths.push_back(a.paths[next_a]);
    return out;
  }

  const Cotree& tree_;
  bool complement_;
  std::vector<int> succ_;
};

}  // namespace

PathPartition cotree_path_cover(const Cotree& tree, bool complement) {
  LPTSP_REQUIRE(tree.root >= 0, "cotree must be built");
  CoverBuilder builder(tree, complement, static_cast<int>(tree.node(tree.root).vertices.size()));
  return builder.paths(builder.fold(tree.root));
}

int cotree_min_path_cover(const Cotree& tree) { return cotree_path_cover(tree).size(); }

int cograph_min_path_cover(const Graph& graph) {
  const auto tree = build_cotree(graph);
  LPTSP_REQUIRE(tree.has_value(), "graph is not a cograph");
  return cotree_min_path_cover(*tree);
}

bool cograph_has_hamiltonian_path(const Graph& graph) {
  return cograph_min_path_cover(graph) == 1;
}

std::optional<Labeling> cograph_optimal_labeling(const Graph& graph, const PVec& p) {
  const int n = graph.n();
  if (n < 2 || !p.satisfies_reduction_condition()) return std::nullopt;
  const bool complete = 2LL * graph.m() == static_cast<long long>(n) * (n - 1);
  if (!complete && p.k() < 2) return std::nullopt;  // diameter 2 > k
  // A join root means the complement is disconnected: G is connected with
  // diameter <= 2. The build rejects a non-cograph itself.
  const std::optional<Cotree> tree = build_cotree(graph);
  if (!tree || !tree->node(tree->root).is_series) return std::nullopt;

  const Weight near = p.at(1);
  const Weight far = complete ? near : p.at(2);
  const PathPartition cover = cotree_path_cover(*tree, near > far);

  // Claim 1: label the concatenated order by prefix sums of its weights.
  const DistanceMatrix dist = all_pairs_distances(graph, 1);
  Labeling labeling;
  labeling.labels.assign(static_cast<std::size_t>(n), 0);
  int previous = -1;
  Weight label = 0;
  for (const auto& path : cover.paths) {
    for (const int v : path) {
      if (previous >= 0) {
        const int d = dist.at(previous, v);
        if (d < 1 || d > p.k()) return std::nullopt;
        label += p.at(d);
      }
      labeling.labels[static_cast<std::size_t>(v)] = label;
      previous = v;
    }
  }

  const Weight cheap = std::min(near, far);
  const Weight corollary2 = static_cast<Weight>(n - 1) * cheap +
                            (std::max(near, far) - cheap) * static_cast<Weight>(cover.size() - 1);
  if (labeling.span() != corollary2 || !is_valid_labeling(graph, dist, p, labeling)) {
    return std::nullopt;
  }
  return labeling;
}

}  // namespace lptsp
