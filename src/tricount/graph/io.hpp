// Graph file I/O: whitespace-separated edge lists (with # comments),
// MatrixMarket coordinate files, and a fast binary format.
//
// All readers return raw (unsimplified) edge lists so callers can decide
// whether to canonicalize; pass them through simplify() before counting.
#pragma once

#include <string>

#include "tricount/graph/edge_list.hpp"

namespace tricount::graph {

/// Text format: one "u v" pair per line; lines starting with '#' or '%'
/// are comments. Vertex count = max id + 1 (or the explicit `#n <count>`
/// header if present). Throws std::runtime_error on malformed input.
EdgeList read_edge_list(const std::string& path);
void write_edge_list(const EdgeList& graph, const std::string& path);

/// MatrixMarket coordinate format (pattern/general or symmetric). Indices
/// are 1-based in the file, 0-based in memory.
EdgeList read_matrix_market(const std::string& path);
void write_matrix_market(const EdgeList& graph, const std::string& path);

/// Binary format: magic, vertex count, edge count, then raw Edge records.
EdgeList read_binary(const std::string& path);
void write_binary(const EdgeList& graph, const std::string& path);

/// By extension: ".mtx" is MatrixMarket, ".bin" binary, anything else
/// the text edge list.
EdgeList read_graph_file(const std::string& path);
void write_graph_file(const EdgeList& graph, const std::string& path);

}  // namespace tricount::graph
