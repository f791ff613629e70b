#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/endian.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

TEST(EdgeListIo, RoundTripThroughStream) {
  Rng rng(1);
  const Graph original = random_connected(14, 0.3, rng);
  std::stringstream buffer;
  write_edge_list(buffer, original);
  const Graph loaded = read_edge_list(buffer);
  EXPECT_TRUE(original == loaded);
}

TEST(EdgeListIo, ParsesCommentsAndBlankLines) {
  std::stringstream input("# a comment\n\n3 2\n# another\n0 1\n\n1 2\n");
  const Graph graph = read_edge_list(input);
  EXPECT_EQ(graph.n(), 3);
  EXPECT_EQ(graph.m(), 2);
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 2));
}

TEST(EdgeListIo, RejectsMissingHeader) {
  std::stringstream input("# only comments\n");
  EXPECT_THROW(read_edge_list(input), precondition_error);
}

TEST(EdgeListIo, RejectsTruncatedEdgeSection) {
  std::stringstream input("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(input), precondition_error);
}

TEST(EdgeListIo, RejectsOutOfRangeEndpoint) {
  std::stringstream input("2 1\n0 5\n");
  EXPECT_THROW(read_edge_list(input), precondition_error);
}

TEST(EdgeListIo, RejectsDuplicateEdge) {
  std::stringstream input("3 2\n0 1\n1 0\n");
  EXPECT_THROW(read_edge_list(input), precondition_error);
}

TEST(EdgeListIo, RejectsMalformedHeader) {
  std::stringstream input("three two\n");
  EXPECT_THROW(read_edge_list(input), precondition_error);
}

TEST(EdgeListIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/lptsp_io_test.graph";
  const Graph original = petersen_graph();
  write_edge_list_file(path, original);
  const Graph loaded = read_edge_list_file(path);
  EXPECT_TRUE(original == loaded);
  std::remove(path.c_str());
}

TEST(EdgeListIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/dir/file.graph"), precondition_error);
}

// ---------------------------------------------------------------------------
// Binary graph codec (the lptspd wire graph payload).
// ---------------------------------------------------------------------------

TEST(BinaryGraphIo, RoundTripsRandomAndDegenerateGraphs) {
  Rng rng(5);
  std::vector<Graph> cases = {Graph(0), Graph(1), Graph(5), complete_graph(9), path_graph(12),
                              star_graph(7)};
  for (int trial = 0; trial < 30; ++trial) {
    cases.push_back(erdos_renyi(rng.uniform_int(2, 40), rng.uniform01(), rng));
  }
  for (const Graph& graph : cases) {
    std::vector<std::uint8_t> bytes;
    append_graph_binary(bytes, graph);
    EXPECT_EQ(bytes.size(), graph_binary_size(graph));
    Graph decoded(0);
    std::string error;
    std::size_t offset = 0;
    ASSERT_TRUE(decode_graph_binary(bytes.data(), bytes.size(), offset, decoded, error))
        << error;
    EXPECT_EQ(offset, bytes.size());
    EXPECT_EQ(decoded, graph);
  }
}

/// The byte layout is pinned, not just round-tripped: persisted store
/// records and wire frames written by older builds must keep decoding to
/// the same bytes. Expected = n, then per vertex the ascending list of its
/// neighbours above it, built here from Graph::edges(). Orders above 64
/// cross adjacency-word boundaries.
TEST(BinaryGraphIo, EncodingIsAscendingForwardListsPerVertex) {
  Rng rng(17);
  for (const int n : {1, 2, 63, 64, 65, 127, 130, 200}) {
    const Graph graph = erdos_renyi(n, 0.3, rng);
    std::vector<std::vector<std::uint32_t>> forward(static_cast<std::size_t>(n));
    for (const auto& [u, v] : graph.edges()) {
      forward[static_cast<std::size_t>(u)].push_back(static_cast<std::uint32_t>(v));
    }
    std::vector<std::uint8_t> expected;
    endian::put_u32(expected, static_cast<std::uint32_t>(n));
    for (const auto& list : forward) {
      endian::put_u32(expected, static_cast<std::uint32_t>(list.size()));
      for (const std::uint32_t u : list) endian::put_u32(expected, u);
    }
    std::vector<std::uint8_t> bytes = {0xAB};  // appends after existing bytes
    append_graph_binary(bytes, graph);
    ASSERT_EQ(bytes.size(), 1 + expected.size()) << n;
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), bytes.begin() + 1)) << n;
    Graph decoded(0);
    std::string error;
    std::size_t offset = 1;
    ASSERT_TRUE(decode_graph_binary(bytes.data(), bytes.size(), offset, decoded, error)) << error;
    EXPECT_EQ(decoded, graph);
  }
}

TEST(BinaryGraphIo, DecodeAdvancesOffsetPastTheEncodingOnly) {
  std::vector<std::uint8_t> bytes;
  append_graph_binary(bytes, complete_graph(4));
  const std::size_t first_size = bytes.size();
  append_graph_binary(bytes, path_graph(3));
  std::size_t offset = 0;
  Graph decoded(0);
  std::string error;
  ASSERT_TRUE(decode_graph_binary(bytes.data(), bytes.size(), offset, decoded, error));
  EXPECT_EQ(offset, first_size);
  EXPECT_EQ(decoded, complete_graph(4));
  ASSERT_TRUE(decode_graph_binary(bytes.data(), bytes.size(), offset, decoded, error));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(decoded, path_graph(3));
}

TEST(BinaryGraphIo, RejectsMalformedEncodingsWithoutThrowing) {
  std::vector<std::uint8_t> valid;
  append_graph_binary(valid, complete_graph(5));

  // Every strict prefix is a typed truncation error.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    Graph decoded(0);
    std::string error;
    std::size_t offset = 0;
    EXPECT_FALSE(decode_graph_binary(valid.data(), cut, offset, decoded, error));
    EXPECT_FALSE(error.empty());
  }

  const auto expect_reject = [](std::vector<std::uint8_t> bytes, int max_vertices = 1 << 20) {
    Graph decoded(0);
    std::string error;
    std::size_t offset = 0;
    EXPECT_FALSE(
        decode_graph_binary(bytes.data(), bytes.size(), offset, decoded, error, max_vertices));
    EXPECT_FALSE(error.empty());
  };

  // Vertex count beyond the limit is refused before any allocation.
  expect_reject({0xff, 0xff, 0xff, 0xff}, 1000);
  // Forward degree larger than the remaining vertex range.
  expect_reject({2, 0, 0, 0, /*deg(0)=*/5, 0, 0, 0});
  // Neighbor <= self (backward edge / self-loop).
  expect_reject({3, 0, 0, 0, /*deg(0)=*/1, 0, 0, 0, /*u=*/0, 0, 0, 0,
                 /*deg(1)=*/0, 0, 0, 0, /*deg(2)=*/0, 0, 0, 0});
  // Neighbors not strictly ascending (duplicate edge).
  expect_reject({3, 0, 0, 0, /*deg(0)=*/2, 0, 0, 0, /*u=*/2, 0, 0, 0, /*u=*/2, 0, 0, 0,
                 /*deg(1)=*/0, 0, 0, 0, /*deg(2)=*/0, 0, 0, 0});
  // Neighbor index out of range.
  expect_reject({2, 0, 0, 0, /*deg(0)=*/1, 0, 0, 0, /*u=*/7, 0, 0, 0, /*deg(1)=*/0, 0, 0, 0});
}

}  // namespace
}  // namespace lptsp
