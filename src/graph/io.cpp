#include "graph/io.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.hpp"
#include "util/endian.hpp"

namespace lptsp {

namespace {

/// Next line that is neither blank nor a '#' comment; false at EOF.
bool next_data_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  LPTSP_REQUIRE(next_data_line(in, line), "edge list: missing header line");
  std::istringstream header(line);
  int n = 0;
  int m = 0;
  LPTSP_REQUIRE(static_cast<bool>(header >> n >> m), "edge list: header must be '<n> <m>'");
  LPTSP_REQUIRE(n >= 0 && m >= 0, "edge list: negative counts");
  Graph graph(n);
  for (int i = 0; i < m; ++i) {
    LPTSP_REQUIRE(next_data_line(in, line), "edge list: fewer edges than declared");
    std::istringstream edge(line);
    int u = 0;
    int v = 0;
    LPTSP_REQUIRE(static_cast<bool>(edge >> u >> v), "edge list: malformed edge line");
    graph.add_edge(u, v);
  }
  return graph;
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  LPTSP_REQUIRE(in.good(), "cannot open graph file: " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Graph& graph) {
  out << "# lptsp edge list\n" << graph.n() << ' ' << graph.m() << '\n';
  for (const auto& [u, v] : graph.edges()) out << u << ' ' << v << '\n';
}

void write_edge_list_file(const std::string& path, const Graph& graph) {
  std::ofstream out(path);
  LPTSP_REQUIRE(out.good(), "cannot open output file: " + path);
  write_edge_list(out, graph);
}

std::size_t graph_binary_size(const Graph& graph) noexcept {
  // n, one degree word per vertex, one word per edge (forward lists hold
  // each edge exactly once).
  return 4 * (1 + static_cast<std::size_t>(graph.n()) + static_cast<std::size_t>(graph.m()));
}

void append_graph_binary(std::vector<std::uint8_t>& out, const Graph& graph) {
  const int n = graph.n();
  const std::size_t begin = out.size();
  out.resize(begin + graph_binary_size(graph));
  std::uint8_t* cursor = out.data() + begin;
  const auto write = [&cursor](std::uint32_t value) {
    endian::set_u32(cursor, value);
    cursor += 4;
  };
  write(static_cast<std::uint32_t>(n));
  // Forward lists straight off the adjacency bit-matrix: scanning row v
  // from bit v+1 up yields exactly the neighbours u > v, already sorted.
  const int words = graph.words_per_row();
  for (int v = 0; v < n; ++v) {
    const std::uint64_t* row = graph.adjacency_bits() + static_cast<std::size_t>(v) * words;
    std::uint8_t* count_slot = cursor;
    cursor += 4;
    std::uint32_t count = 0;
    for (int w = (v + 1) / 64; w < words; ++w) {
      std::uint64_t bits = row[w];
      if (w == (v + 1) / 64) bits &= ~std::uint64_t{0} << ((v + 1) % 64);
      for (; bits != 0; bits &= bits - 1) {
        write(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
        ++count;
      }
    }
    endian::set_u32(count_slot, count);
  }
  LPTSP_ENSURE(cursor == out.data() + out.size(), "graph binary size disagrees with m()");
}

bool decode_graph_binary(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                         Graph& graph, std::string& error, int max_vertices) {
  std::uint32_t n = 0;
  if (!endian::try_get_u32(data, size, offset, n)) {
    error = "graph: truncated vertex count";
    return false;
  }
  if (n > static_cast<std::uint32_t>(max_vertices)) {
    error = "graph: vertex count " + std::to_string(n) + " exceeds limit " +
            std::to_string(max_vertices);
    return false;
  }
  Graph decoded(static_cast<int>(n));
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t degree = 0;
    if (!endian::try_get_u32(data, size, offset, degree)) {
      error = "graph: truncated degree of vertex " + std::to_string(v);
      return false;
    }
    // Forward degree is at most n - 1 - v; checking before the neighbor
    // loop bounds the work a hostile length prefix can cause.
    if (degree > n - 1 - v) {
      error = "graph: forward degree " + std::to_string(degree) + " of vertex " +
              std::to_string(v) + " out of range";
      return false;
    }
    std::uint32_t previous = v;
    for (std::uint32_t i = 0; i < degree; ++i) {
      std::uint32_t u = 0;
      if (!endian::try_get_u32(data, size, offset, u)) {
        error = "graph: truncated adjacency of vertex " + std::to_string(v);
        return false;
      }
      // Strictly ascending and > v: rules out self-loops, duplicates, and
      // backward edges in one comparison, and makes the encoding unique.
      if (u <= previous || u >= n) {
        error = "graph: invalid neighbor " + std::to_string(u) + " of vertex " +
                std::to_string(v);
        return false;
      }
      decoded.add_edge(static_cast<int>(v), static_cast<int>(u));
      previous = u;
    }
  }
  graph = std::move(decoded);
  error.clear();
  return true;
}

}  // namespace lptsp
