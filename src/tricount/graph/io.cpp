#include "tricount/graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tricount::graph {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x5443474245444745ULL;  // "TCGBEDGE"

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what);
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode = {}) {
  std::ifstream in(path, mode);
  if (!in) fail(path, "cannot open for reading");
  return in;
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode = {}) {
  std::ofstream out(path, mode);
  if (!out) fail(path, "cannot open for writing");
  return out;
}

void finalize_vertex_count(EdgeList& graph, bool explicit_count) {
  if (explicit_count) return;
  VertexId max_id = 0;
  for (const Edge& e : graph.edges) max_id = std::max({max_id, e.u, e.v});
  graph.num_vertices = graph.edges.empty() ? 0 : max_id + 1;
}

}  // namespace

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in = open_in(path);
  EdgeList graph;
  bool explicit_count = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '%') continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string key;
      if (header >> key && key == "n") {
        std::uint64_t n = 0;
        if (header >> n) {
          graph.num_vertices = static_cast<VertexId>(n);
          explicit_count = true;
        }
      }
      continue;
    }
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(fields >> u >> v)) {
      fail(path, "malformed edge on line " + std::to_string(line_no));
    }
    graph.edges.push_back(
        Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  finalize_vertex_count(graph, explicit_count);
  return graph;
}

void write_edge_list(const EdgeList& graph, const std::string& path) {
  std::ofstream out = open_out(path);
  out << "#n " << graph.num_vertices << "\n";
  for (const Edge& e : graph.edges) {
    out << e.u << ' ' << e.v << '\n';
  }
  if (!out) fail(path, "write failed");
}

EdgeList read_matrix_market(const std::string& path) {
  std::ifstream in = open_in(path);
  std::string line;
  if (!std::getline(in, line) || line.rfind("%%MatrixMarket", 0) != 0) {
    fail(path, "missing MatrixMarket banner");
  }
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  if (!(sizes >> rows >> cols >> nnz)) fail(path, "malformed size line");
  EdgeList graph;
  graph.num_vertices = static_cast<VertexId>(std::max(rows, cols));
  graph.edges.reserve(nnz);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t r = 0;
    std::uint64_t c = 0;
    if (!(fields >> r >> c)) fail(path, "malformed coordinate line");
    if (r == 0 || c == 0) fail(path, "MatrixMarket indices are 1-based");
    graph.edges.push_back(Edge{static_cast<VertexId>(r - 1),
                               static_cast<VertexId>(c - 1)});
  }
  return graph;
}

void write_matrix_market(const EdgeList& graph, const std::string& path) {
  std::ofstream out = open_out(path);
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
  out << graph.num_vertices << ' ' << graph.num_vertices << ' '
      << graph.edges.size() << '\n';
  for (const Edge& e : graph.edges) {
    // Symmetric MatrixMarket stores the lower triangle: row >= column.
    const VertexId row = std::max(e.u, e.v);
    const VertexId col = std::min(e.u, e.v);
    out << (row + 1) << ' ' << (col + 1) << '\n';
  }
  if (!out) fail(path, "write failed");
}

EdgeList read_binary(const std::string& path) {
  std::ifstream in = open_in(path, std::ios::binary);
  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || magic != kBinaryMagic) fail(path, "bad binary graph header");
  EdgeList graph;
  graph.num_vertices = static_cast<VertexId>(n);
  graph.edges.resize(m);
  in.read(reinterpret_cast<char*>(graph.edges.data()),
          static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!in) fail(path, "truncated binary graph");
  return graph;
}

void write_binary(const EdgeList& graph, const std::string& path) {
  std::ofstream out = open_out(path, std::ios::binary);
  const std::uint64_t n = graph.num_vertices;
  const std::uint64_t m = graph.edges.size();
  out.write(reinterpret_cast<const char*>(&kBinaryMagic), sizeof(kBinaryMagic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(graph.edges.data()),
            static_cast<std::streamsize>(m * sizeof(Edge)));
  if (!out) fail(path, "write failed");
}

EdgeList read_graph_file(const std::string& path) {
  if (path.ends_with(".mtx")) return read_matrix_market(path);
  if (path.ends_with(".bin")) return read_binary(path);
  return read_edge_list(path);
}

void write_graph_file(const EdgeList& graph, const std::string& path) {
  if (path.ends_with(".mtx")) {
    write_matrix_market(graph, path);
  } else if (path.ends_with(".bin")) {
    write_binary(graph, path);
  } else {
    write_edge_list(graph, path);
  }
}

}  // namespace tricount::graph
