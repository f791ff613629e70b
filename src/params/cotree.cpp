#include "params/cotree.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace lptsp {

namespace {

// Vertex sets are bitsets of graph.words_per_row() words, searched straight
// on the adjacency bit rows: nothing is copied per cotree node (no induced
// subgraph, no complement).
using Word = std::uint64_t;
using Bitset = std::vector<Word>;

Bitset all_vertices(const Graph& graph) {
  Bitset all(static_cast<std::size_t>(graph.words_per_row()), 0);
  for (int v = 0; v < graph.n(); ++v) all[static_cast<std::size_t>(v) / 64] |= Word{1} << (v % 64);
  return all;
}

/// Splits vertex sets into components or co-components. Sets are flat
/// bitsets; one search costs O(|set| * words) word operations and reuses
/// the same three scratch rows.
class Splitter {
 public:
  explicit Splitter(const Graph& graph)
      : bits_(graph.adjacency_bits()),
        words_(static_cast<std::size_t>(graph.words_per_row())),
        remaining_(words_),
        frontier_(words_),
        next_(words_) {}

  [[nodiscard]] std::size_t words() const noexcept { return words_; }

  /// Connected components of G[set] (complement = false) or of its
  /// complement, appended to `parts` as consecutive `words()`-word
  /// bitsets; returns how many. A search grows a frontier level by level:
  /// in G the next level is the union of the frontier's rows; in the
  /// complement it is everything some frontier vertex is not adjacent to,
  /// i.e. the complement of their rows' intersection.
  std::size_t split(const Word* set, bool complement, Bitset& parts) {
    std::copy(set, set + words_, remaining_.begin());
    std::size_t count = 0;
    for (std::size_t start_word = 0; start_word < words_;) {
      if (remaining_[start_word] == 0) {
        ++start_word;
        continue;
      }
      const std::size_t part = parts.size();
      parts.resize(part + words_, 0);
      std::fill(frontier_.begin(), frontier_.end(), 0);
      frontier_[start_word] = remaining_[start_word] & (~remaining_[start_word] + 1);  // lowest
      for (bool grew = true; grew;) {
        std::fill(next_.begin(), next_.end(), complement ? ~Word{0} : 0);
        for (std::size_t w = 0; w < words_; ++w) {
          parts[part + w] |= frontier_[w];
          remaining_[w] &= ~frontier_[w];
          for (Word word = frontier_[w]; word != 0; word &= word - 1) {
            const Word* row =
                bits_ + (w * 64 + static_cast<std::size_t>(std::countr_zero(word))) * words_;
            for (std::size_t x = 0; x < words_; ++x) {
              next_[x] = complement ? next_[x] & row[x] : next_[x] | row[x];
            }
          }
        }
        grew = false;
        for (std::size_t x = 0; x < words_; ++x) {
          frontier_[x] = (complement ? ~next_[x] : next_[x]) & remaining_[x];
          grew = grew || frontier_[x] != 0;
        }
      }
      ++count;
    }
    return count;
  }

 private:
  const Word* bits_;
  std::size_t words_;
  Bitset remaining_;
  Bitset frontier_;
  Bitset next_;
};

/// Which splits a node still has to try. A component of a union node is
/// connected, so only its co-components can split it; a co-component of a
/// join node is co-connected, so only its components can.
enum class Try { Both, Components, CoComponents };

/// Returns the node id, or -1 if a non-cograph induced subgraph is found.
int build(Splitter& splitter, const Word* set, Try splits, Cotree& tree) {
  const int id = static_cast<int>(tree.nodes.size());
  Cotree::Node& node = tree.nodes.emplace_back();
  std::size_t size = 0;
  for (std::size_t w = 0; w < splitter.words(); ++w) size += std::popcount(set[w]);
  node.vertices.reserve(size);
  for (std::size_t w = 0; w < splitter.words(); ++w) {
    for (Word word = set[w]; word != 0; word &= word - 1) {
      node.vertices.push_back(static_cast<int>(w * 64) + std::countr_zero(word));
    }
  }
  if (node.vertices.size() == 1) {
    node.is_leaf = true;
    node.vertex = node.vertices[0];
    return id;
  }

  Bitset parts;
  for (const bool complement : {false, true}) {
    if (splits == (complement ? Try::Components : Try::CoComponents)) continue;
    const std::size_t count = splitter.split(set, complement, parts);
    if (count <= 1) {
      parts.clear();
      continue;
    }
    tree.nodes[static_cast<std::size_t>(id)].is_series = complement;
    tree.nodes[static_cast<std::size_t>(id)].children.reserve(count);
    for (std::size_t c = 0; c < count; ++c) {
      const int child = build(splitter, parts.data() + c * splitter.words(),
                              complement ? Try::Components : Try::CoComponents, tree);
      if (child == -1) return -1;
      tree.nodes[static_cast<std::size_t>(id)].children.push_back(child);
    }
    return id;
  }
  return -1;  // connected and co-connected on >= 2 vertices: not a cograph
}

}  // namespace

std::optional<Cotree> build_cotree(const Graph& graph) {
  LPTSP_REQUIRE(graph.n() >= 1, "cotree needs a non-empty graph");
  Cotree tree;
  tree.nodes.reserve(2 * static_cast<std::size_t>(graph.n()));  // a cotree has < 2n nodes
  Splitter splitter(graph);
  tree.root = build(splitter, all_vertices(graph).data(), Try::Both, tree);
  if (tree.root == -1) return std::nullopt;
  return tree;
}

bool is_cograph(const Graph& graph) {
  return build_cotree(graph).has_value();
}

}  // namespace lptsp
