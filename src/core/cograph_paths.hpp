#pragma once

#include <optional>

#include "core/labeling.hpp"
#include "core/partition_paths.hpp"
#include "core/pvec.hpp"
#include "graph/graph.hpp"
#include "params/cotree.hpp"

namespace lptsp {

/// Minimum path cover of a cograph, as explicit paths, by a linear cotree
/// fold — the modular-decomposition route behind the paper's Corollary 2
/// (PARTITION INTO PATHS is FPT in modular-width; cographs are the
/// mw <= 2 class). `complement` folds the complement's cotree instead,
/// which is this cotree with join and union swapped, so nothing is
/// complemented.
///
/// Recurrence per cotree node (pc = paths, n = vertices):
///   leaf:             one single-vertex path
///   union (parallel): the children's paths side by side
///   join (series):    with sides A and B, pc_A >= pc_B:
///     pc_A > n_B:  thread the n_B vertices of B singly between n_B + 1
///                  A paths, leaving pc_A - n_B paths;
///     otherwise:   cut B's paths into exactly pc_A segments and
///                  interleave them with A's paths: one path.
/// So pc(A + B) = max(1, pc_A - n_B, pc_B - n_A), which is optimal: r
/// merged paths alternate A/B segments, so r >= pc_A - n_B and
/// r >= pc_B - n_A.
PathPartition cotree_path_cover(const Cotree& tree, bool complement = false);

/// The size of that cover.
int cotree_min_path_cover(const Cotree& tree);

/// Convenience wrapper: builds the cotree first. Throws precondition_error
/// if the graph is not a cograph.
int cograph_min_path_cover(const Graph& graph);

/// Hamiltonicity of a cograph: path cover number equals 1.
bool cograph_has_hamiltonian_path(const Graph& graph);

/// An optimal L(p)-labeling of a connected cograph by Corollary 2, with no
/// TSP solve (the cotree build plus an O(n^2) validity check) — or nullopt
/// when this route does not apply, and the caller must use the general
/// pipeline:
///   build:     the cotree, which rejects a non-cograph (a random graph
///              already at the root's two splits); its root must be a join,
///              i.e. the complement is disconnected, so the graph is
///              connected with diameter <= 2. Adjacent pairs weigh p_1,
///              distance-2 pairs p_2 (absent on a complete graph), and the
///              cheap side is G when p_1 <= p_2, its complement otherwise;
///   construct: the cheap side's minimum path cover, concatenated into an
///              order and labeled by Claim 1 (prefix sums of the weights).
/// The result is returned only if its span equals the Corollary-2 value
/// (n-1)*w_cheap + (w_heavy - w_cheap)*(paths - 1) and it passes
/// is_valid_labeling against the graph's own distances. Also nullopt when
/// p breaks pmax <= 2*pmin, or when k = 1 and the graph is not complete.
std::optional<Labeling> cograph_optimal_labeling(const Graph& graph, const PVec& p);

}  // namespace lptsp
