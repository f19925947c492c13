// perfbench_probe — the benchmark's in-process side. It links the repo's
// libraries and calls each layer's public functions directly, so the
// traced run can split an end-to-end time into layer self times.
//
//   perfbench_probe reference --graph G [--top K]
//       serial reference: total triangles + the top-K per-vertex counts
//   perfbench_probe replay --graph G --ops OPS
//       applies every delta batch to the edge set, recounts serially
//   perfbench_probe validate --graph G --ops OPS
//       stream::validate on every batch in order (applying each one)
//   perfbench_probe client --socket S --requests R --window W --seconds T
//                          --out F
//       closed-loop load on a running tricountd: W requests outstanding
//       on one connection for T seconds; F gets "latency_s<TAB>response"
//   perfbench_probe layers --workload W --graph G --ops OPS --reads R
//                          --scale S --seed N --expect T --spans-out F
//       the traced run: per-layer metrics + reconciliation as JSON
//
// OPS files hold one graph.apply batch per line, ops separated by ';'
// ("+u v;-u v"). READS files hold one tricount.service.v1 request per
// line. Every subcommand prints one JSON object on stdout and exits 3
// when a computed count disagrees with the expected one.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tricount/cetric/cetric.hpp"
#include "tricount/core/counter2d.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/core/resident.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/csr.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/service/service.hpp"
#include "tricount/stream/stream.hpp"
#include "tricount/util/time.hpp"

namespace {

using namespace tricount;
using obs::json::Value;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;
constexpr int kGridQ = 2;

struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void expect_count(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    throw Mismatch(std::string(what) + ": counted " + std::to_string(got) +
                   ", expected " + std::to_string(want));
  }
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -----------------------------------------------------------------

/// One recorded call: name, wall interval, parent span index (-1 = root)
/// and the served-request id it belongs to (0 = none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder. Disabled recorders do no work at all, which
/// is what the untraced half of the overhead comparison runs with.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int open(const std::string& name, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start = now_s();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }
  /// Records an already-finished interval as a child of the open span.
  void add(const std::string& name, double start, double end,
           std::uint64_t request) {
    if (!enabled_) return;
    spans_.push_back({name, start, end, stack_.empty() ? -1 : stack_.back(),
                      request});
  }
  const std::vector<Span>& all() const { return spans_; }

  /// Summed duration of every span with this name.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Spans& spans, const std::string& name, std::uint64_t request = 0)
      : spans_(spans), index_(spans.open(name, request)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int index_;
};

template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// --- inputs ----------------------------------------------------------------

std::vector<stream::Batch> read_batches(const std::string& path) {
  std::vector<stream::Batch> batches;
  if (path.empty()) return batches;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open ops file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    stream::Batch batch;
    std::size_t start = 0;
    while (start <= line.size()) {
      std::size_t end = line.find(';', start);
      if (end == std::string::npos) end = line.size();
      const auto op = stream::parse_op(line.substr(start, end - start));
      if (!op) throw std::runtime_error("malformed op in " + path);
      batch.ops.push_back(*op);
      start = end + 1;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  if (path.empty()) return lines;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::uint64_t edge_key(graph::VertexId u, graph::VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

graph::TriangleCount serial_count(const graph::EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

// --- reference / replay / validate ----------------------------------------

Value cmd_reference(const graph::EdgeList& g, std::size_t top) {
  const graph::Csr csr = graph::Csr::from_edges(g);
  Value out = Value::object();
  out.set("triangles",
          static_cast<std::uint64_t>(graph::count_triangles_serial(csr)));
  out.set("edges", static_cast<std::uint64_t>(g.edges.size()));
  if (top > 0) {
    // Same order the service's pervertex verb uses: count desc, id asc.
    const std::vector<graph::TriangleCount> per =
        graph::per_vertex_triangles(csr);
    std::vector<graph::VertexId> order(per.size());
    std::iota(order.begin(), order.end(), graph::VertexId{0});
    const std::size_t take = std::min(top, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(take),
                      order.end(), [&](graph::VertexId a, graph::VertexId b) {
                        return per[a] != per[b] ? per[a] > per[b] : a < b;
                      });
    Value rows = Value::array();
    for (std::size_t i = 0; i < take; ++i) {
      Value row = Value::array();
      row.push_back(static_cast<std::uint64_t>(order[i]));
      row.push_back(static_cast<std::uint64_t>(per[order[i]]));
      rows.push_back(std::move(row));
    }
    out.set("top", std::move(rows));
  }
  return out;
}

Value cmd_replay(const graph::EdgeList& g,
                 const std::vector<stream::Batch>& batches) {
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(g.edges.size() * 2);
  for (const graph::Edge& e : g.edges) edges.insert(edge_key(e.u, e.v));
  graph::VertexId n = g.num_vertices;
  for (const stream::Batch& batch : batches) {
    for (const stream::DeltaOp& op : batch.ops) {
      const std::uint64_t key = edge_key(op.edge.u, op.edge.v);
      const bool changed = op.insert ? edges.insert(key).second
                                     : edges.erase(key) == 1;
      if (!changed) throw std::runtime_error("replay: invalid op in batch");
      n = std::max({n, op.edge.u + 1, op.edge.v + 1});
    }
  }
  graph::EdgeList out;
  out.num_vertices = n;
  out.edges.reserve(edges.size());
  for (const std::uint64_t key : edges) {
    out.edges.push_back({static_cast<graph::VertexId>(key >> 32),
                         static_cast<graph::VertexId>(key & 0xffffffffu)});
  }
  Value result = Value::object();
  result.set("triangles", static_cast<std::uint64_t>(serial_count(out)));
  result.set("edges", static_cast<std::uint64_t>(out.edges.size()));
  return result;
}

Value cmd_validate(const graph::EdgeList& g,
                   const std::vector<stream::Batch>& batches) {
  stream::StreamState state = stream::StreamState::from_graph(g);
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    if (const auto reason = stream::validate(state, batches[i])) {
      throw std::runtime_error("batch " + std::to_string(i) +
                               " fails stream::validate: " + *reason);
    }
    const stream::DeltaResult delta =
        stream::count_delta_world(1, state, batches[i]);
    stream::apply(state, batches[i], delta);
    ops += batches[i].ops.size();
  }
  Value out = Value::object();
  out.set("batches", static_cast<std::uint64_t>(batches.size()));
  out.set("ops", ops);
  out.set("triangles", static_cast<std::uint64_t>(state.triangles()));
  return out;
}

// --- closed-loop client -------------------------------------------------------

/// The id of a tricount.service.v1 response line, by substring scan (the
/// daemon emits compact JSON with an "id" member on every line).
std::uint64_t scan_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos) throw std::runtime_error("response without id");
  return std::stoull(line.substr(at + 5));
}

Value cmd_client(const std::string& socket_path, const std::string& requests,
                 std::size_t window, double seconds, const std::string& out) {
  const std::vector<std::string> lines = read_lines(requests);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("cannot create a socket for " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + socket_path);
  }

  std::unordered_map<std::uint64_t, double> sent_at;
  std::vector<std::pair<double, std::string>> replies;
  std::size_t next = 0;
  auto issue = [&] {
    const std::string& line = lines[next++];
    sent_at[scan_id(line)] = now_s();
    const std::string data = line + "\n";
    for (std::size_t done = 0; done < data.size();) {
      const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
      if (n <= 0) throw std::runtime_error("send failed");
      done += static_cast<std::size_t>(n);
    }
  };

  const double start = now_s();
  while (next < std::min(window, lines.size())) issue();
  std::string buffer;
  char chunk[65536];
  while (!sent_at.empty()) {
    const std::size_t nl = buffer.find('\n');
    if (nl == std::string::npos) {
      // Busy-poll: a client blocked in read() adds its own wake-up
      // latency (tens of µs on a VM) to every hit it times.
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) throw std::runtime_error("tricountd closed the connection");
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const double now = now_s();
    std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    const auto it = sent_at.find(scan_id(line));
    if (it == sent_at.end()) throw std::runtime_error("unexpected reply " + line);
    replies.emplace_back(now - it->second, std::move(line));
    sent_at.erase(it);
    if (now - start < seconds && next < lines.size()) issue();
  }
  const double elapsed = now_s() - start;
  ::close(fd);

  std::ofstream file(out);
  file.precision(9);
  for (const auto& [latency, line] : replies) file << latency << '\t' << line << '\n';
  if (!file) throw std::runtime_error("cannot write " + out);
  Value summary = Value::object();
  summary.set("replies", static_cast<std::uint64_t>(replies.size()));
  summary.set("elapsed_s", elapsed);
  summary.set("exhausted", next == lines.size());
  return summary;
}

// --- the layers ------------------------------------------------------------

struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  void add(const std::vector<mpisim::PerfCounters>& counters) {
    for (const mpisim::PerfCounters& c : counters) {
      messages += c.messages_sent;
      bytes += c.bytes_sent;
    }
  }
};

/// §5.3 preprocessing, one SPMD job per step, from the public step
/// functions. Returns the per-rank aligned blocks.
struct PreSteps {
  std::vector<core::Blocks> blocks;
  graph::VertexId num_vertices = 0;
  graph::EdgeIndex num_edges = 0;
  Traffic traffic;
};

PreSteps preprocess_steps(mpisim::PersistentWorld& world,
                          const graph::EdgeList& g, const core::Config& config,
                          Spans& spans) {
  PreSteps out;
  const auto p = static_cast<std::size_t>(world.size());
  std::vector<core::LocalSlice> slices(p);
  std::vector<core::CyclicSlice> cyclic(p);
  std::vector<core::RelabeledSlice> relabeled(p);
  out.blocks.resize(p);
  std::vector<graph::EdgeIndex> edges(p);
  auto job = [&](const char* name, const mpisim::RankFn& fn) {
    Scope scope(spans, name);
    out.traffic.add(world.run_job(fn).counters);
  };
  job("pre.slice", [&](mpisim::Comm& comm) {
    slices[static_cast<std::size_t>(comm.rank())] =
        core::block_slice_from_edges(g, comm.rank(), comm.size());
  });
  job("pre.redistribute", [&](mpisim::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    cyclic[r] = core::cyclic_redistribute(comm, slices[r]);
  });
  job("pre.degree_order", [&](mpisim::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    relabeled[r] = core::degree_relabel(comm, cyclic[r]);
  });
  job("pre.scatter_2d", [&](mpisim::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    mpisim::Cart2D grid(comm);
    out.blocks[r] = core::scatter_2d(grid, relabeled[r], config.enumeration);
  });
  job("pre.edge_count", [&](mpisim::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    edges[r] = mpisim::allreduce_sum(comm, out.blocks[r].ublock.num_entries());
  });
  {
    // preprocess() frees these as it returns; time that here too.
    Scope scope(spans, "pre.release");
    slices.clear();
    cyclic.clear();
    relabeled.clear();
  }
  out.num_vertices = g.num_vertices;
  out.num_edges = edges[0];
  return out;
}

core::ResidentPartition make_partition(PreSteps pre, const core::Config& config) {
  core::ResidentPartition partition;
  partition.ranks = static_cast<int>(pre.blocks.size());
  partition.grid_q = mpisim::perfect_square_root(partition.ranks);
  partition.num_vertices = pre.num_vertices;
  partition.num_edges = pre.num_edges;
  partition.config = config;
  partition.blocks = std::move(pre.blocks);
  partition.pre_stats.assign(static_cast<std::size_t>(partition.ranks),
                             core::RankStats{});
  return partition;
}

/// Cannon's blocks at superstep s, rebuilt from the aligned start
/// positions: U moves one column left and L one row up per shift, so
/// rank (x,y) holds the start U of (x, y+s) and the start L of (x+s, y).
struct StepBlocks {
  const core::BlockCsr* tasks;
  const core::BlockCsr* ublock;
  const core::BlockCsr* lblock;
};
StepBlocks step_blocks(const core::ResidentPartition& partition, int rank,
                       int s) {
  const int q = partition.grid_q;
  const int x = rank / q;
  const int y = rank % q;
  const auto& own = partition.blocks[static_cast<std::size_t>(rank)];
  const auto& u = partition.blocks[static_cast<std::size_t>(x * q + (y + s) % q)];
  const auto& l = partition.blocks[static_cast<std::size_t>(((x + s) % q) * q + y)];
  return {&own.tasks, &u.ublock, &l.lblock};
}

/// intersect_blocks replayed per rank and per superstep with a forced
/// kernel policy, one SPMD job per superstep.
struct Replay {
  graph::TriangleCount triangles = 0;
  kernels::KernelCounters counters;
  std::vector<double> step_wall;                // per superstep
  std::vector<std::vector<double>> cpu;         // [step][rank]
  double cpu_total = 0.0;
};

Replay replay_supersteps(mpisim::PersistentWorld& world,
                         const core::ResidentPartition& partition,
                         core::Config config, kernels::KernelPolicy policy,
                         Spans& spans) {
  config.kernel = policy;
  config.enumeration = partition.config.enumeration;
  const auto p = static_cast<std::size_t>(partition.ranks);
  const int q = partition.grid_q;
  Replay out;
  std::vector<kernels::IntersectScratch> scratch(p);
  std::vector<kernels::KernelCounters> counters(p);
  std::vector<graph::TriangleCount> found(p, 0);
  for (int s = 0; s < q; ++s) {
    std::vector<double> cpu(p, 0.0);
    const std::string name = std::string("kernels.") +
                              kernels::to_string(policy) + ".superstep" +
                              std::to_string(s);
    Scope scope(spans, name);
    out.step_wall.push_back(timed([&] {
      world.run_job([&](mpisim::Comm& comm) {
        const int r = comm.rank();
        const auto ri = static_cast<std::size_t>(r);
        const StepBlocks b = step_blocks(partition, r, s);
        scratch[ri].reserve_for(std::max<std::size_t>(
            {b.ublock->max_row_degree(), std::size_t{16}}));
        const double t0 = util::thread_cpu_seconds();
        found[ri] += core::intersect_blocks(*b.tasks, *b.ublock, *b.lblock,
                                            config, scratch[ri], counters[ri]);
        cpu[ri] = util::thread_cpu_seconds() - t0;
      });
    }));
    out.cpu.push_back(cpu);
    for (const double c : cpu) out.cpu_total += c;
  }
  for (std::size_t r = 0; r < p; ++r) {
    out.triangles += found[r];
    out.counters += counters[r];
  }
  return out;
}


/// A manual-dispatch Service driven like the daemon's closed loop: up to
/// `window` requests submitted, then dispatched. The spans of one request
/// share its id: service.submit (parse + admit) and service.execute
/// (inside service.dispatch, ending when its response is emitted). Every
/// response is checked against the reference count.
class ServedSession {
 public:
  ServedSession(Spans& spans, std::uint64_t expected)
      : spans_(spans), expected_(expected) {
    service::ServiceOptions options;
    options.ranks = kRanks;
    options.manual_dispatch = true;
    options.artifacts_dir.clear();
    Scope scope(spans_, "service.start");
    svc_ = std::make_unique<service::Service>(
        options, [this](const std::string& line) { on_response(line); });
  }
  ~ServedSession() {
    Scope scope(spans_, "service.stop");
    svc_.reset();
  }
  ServedSession(const ServedSession&) = delete;
  ServedSession& operator=(const ServedSession&) = delete;

  service::Service& svc() { return *svc_; }

  void load(graph::EdgeList g) {
    Scope scope(spans_, "service.load_graph");
    svc_->load_graph(std::move(g), "perfbench");
  }

  void submit(const std::string& line) {
    Scope scope(spans_, "service.submit", request_id(line));
    svc_->submit(line);
  }

  /// Dispatches everything queued; throws if a response failed a check
  /// (the sink itself must not throw through the service).
  void dispatch() {
    {
      Scope scope(spans_, "service.dispatch");
      mark_ = now_s();
      dispatching_ = true;
      while (svc_->dispatch_once()) ++batches_;
      dispatching_ = false;
    }
    if (wrong_count_) throw Mismatch(failure_);
    if (!failure_.empty()) throw std::runtime_error(failure_);
  }

  /// Closed loop over `reads`, `window` requests in flight per sweep.
  void serve(const std::vector<std::string>& reads, std::size_t window) {
    for (std::size_t i = 0; i < reads.size(); i += window) {
      const std::size_t end = std::min(reads.size(), i + window);
      for (std::size_t j = i; j < end; ++j) submit(reads[j]);
      dispatch();
    }
  }

  std::uint64_t batches() const { return batches_; }

  static std::uint64_t request_id(const std::string& line) {
    const Value v = Value::parse(line);
    const Value* id = v.find("id");
    return id != nullptr && id->is_number() ? id->as_uint() : 0;
  }

 private:
  void on_response(const std::string& line) {
    const double t = now_s();
    try {
      const Value v = Value::parse(line);
      const Value* id = v.find("id");
      if (dispatching_) {
        spans_.add("service.execute", mark_, t,
                   id != nullptr && id->is_number() ? id->as_uint() : 0);
        mark_ = t;
      }
      if (!failure_.empty()) return;
      const Value* ok = v.find("ok");
      if (ok == nullptr || !ok->as_bool()) {
        failure_ = "served request failed: " + line;
        return;
      }
      const Value& result = v.get("result");
      for (const char* key : {"triangles", "total_triangles"}) {
        const Value* count = result.find(key);
        if (count != nullptr && count->as_uint() != expected_) {
          failure_ = "served count: " + line + " (expected " +
                     std::to_string(expected_) + ")";
          wrong_count_ = true;
        }
      }
    } catch (const std::exception& e) {
      if (failure_.empty()) failure_ = std::string("bad response: ") + e.what();
    }
  }

  Spans& spans_;
  std::uint64_t expected_;
  std::unique_ptr<service::Service> svc_;
  double mark_ = 0.0;
  bool dispatching_ = false;
  std::uint64_t batches_ = 0;
  std::string failure_;  ///< first failed check, reported after dispatch
  bool wrong_count_ = false;
};

graph::EdgeList read_graph(const std::string& path, Spans& spans) {
  graph::EdgeList raw;
  {
    Scope scope(spans, "graph.read");
    raw = graph::read_binary(path);
  }
  Scope scope(spans, "graph.simplify");
  return graph::simplify(std::move(raw));
}

/// The served write cycle, as tricountd runs it: validate, count the
/// delta on the world, apply, rebuild the edge list, re-preprocess the
/// dirty partition, then the fresh 2D count (checked against the
/// maintained total).
struct WriteCycle {
  mpisim::PersistentWorld& world;
  stream::StreamState& state;
  core::Config config;
  std::uint64_t ops = 0;
  std::uint64_t shard_bytes = 0;

  void run(const stream::Batch& batch, Spans& spans) {
    {
      Scope scope(spans, "stream.validate");
      if (const auto reason = stream::validate(state, batch)) {
        throw std::runtime_error("generated batch is invalid: " + *reason);
      }
    }
    stream::DeltaResult delta;
    {
      Scope scope(spans, "stream.count_delta");
      delta = stream::count_delta(world, state, batch);
    }
    {
      Scope scope(spans, "stream.apply");
      stream::apply(state, batch, delta);
    }
    graph::EdgeList g;
    {
      Scope scope(spans, "stream.edge_list");
      g = state.edge_list();
    }
    core::ResidentPartition partition;
    {
      Scope scope(spans, "pre.resident");
      core::RunOptions options;
      options.config = config;
      partition = core::preprocess_resident(world, g, options);
    }
    core::RunResult run;
    {
      Scope scope(spans, "tc.count_resident");
      run = core::count_resident(world, partition, config);
    }
    expect_count("fresh count after apply", run.triangles, state.triangles());
    ops += batch.ops.size();
    shard_bytes += delta.shard_bytes;
  }
};

// --- reconciliation ---------------------------------------------------------

std::string layer_of(const std::string& span) {
  const std::string prefix = span.substr(0, span.find('.'));
  if (prefix == "pre" || prefix == "tc") return "core";
  return prefix;
}

/// Splits the root span of `spans` into layer self times. The root's own
/// self time is what no layer call covers: the unattributed share.
Value reconcile(const Spans& spans) {
  const std::vector<Span>& all = spans.all();
  std::vector<double> child_sum(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> layers;
  for (std::size_t i = 1; i < all.size(); ++i) {
    layers[layer_of(all[i].name)] +=
        (all[i].end - all[i].start) - child_sum[i];
  }
  const Span& root = all.at(0);
  const double e2e = root.end - root.start;
  const double unattributed = e2e - child_sum[0];

  // Name the boundary with the largest uncovered gap between the root's
  // consecutive children.
  std::vector<const Span*> children;
  for (const Span& s : all) {
    if (s.parent == 0) children.push_back(&s);
  }
  std::string gap = "none";
  double widest = -1.0;
  double cursor = root.start;
  std::string previous = "start";
  for (const Span* child : children) {
    if (child->start - cursor > widest) {
      widest = child->start - cursor;
      gap = previous + " -> " + child->name;
    }
    cursor = child->end;
    previous = child->name;
  }
  if (root.end - cursor > widest) {
    widest = root.end - cursor;
    gap = previous + " -> end";
  }

  Value layer_values = Value::object();
  double layer_total = 0.0;
  for (const auto& [name, self] : layers) {
    layer_values.set(name, self);
    layer_total += self;
  }
  Value out = Value::object();
  out.set("e2e_s", e2e);
  out.set("layer_self_s", std::move(layer_values));
  out.set("layer_sum_s", layer_total);
  out.set("unattributed_s", unattributed);
  out.set("unattributed_frac", e2e > 0.0 ? unattributed / e2e : 0.0);
  out.set("widest_gap", gap);
  out.set("widest_gap_s", widest);
  return out;
}

Value spans_json(const Spans& spans, const std::string& group) {
  Value out = Value::array();
  for (const Span& s : spans.all()) {
    Value row = Value::object();
    row.set("group", group);
    row.set("name", s.name);
    row.set("start", s.start);
    row.set("end", s.end);
    row.set("parent", s.parent);
    row.set("request", s.request);
    out.push_back(std::move(row));
  }
  return out;
}

// --- the traced run ----------------------------------------------------------

struct LayersArgs {
  std::string workload;
  std::string graph;
  std::string ops;
  std::string reads;
  std::string spans_out;
  int scale = 16;
  std::uint64_t seed = 1;
  std::uint64_t expect = 0;
};

/// Message timing with Comm ping-pong on two ranks: half the mean round
/// trip of `iters` exchanges of `bytes`-sized payloads.
double pingpong_seconds(std::size_t bytes, int iters, Spans& spans) {
  Scope scope(spans, "mpisim.pingpong_" + std::to_string(bytes));
  double half_rtt = 0.0;
  const std::vector<std::byte> payload(bytes, std::byte{1});
  mpisim::run_world(2, [&](mpisim::Comm& comm) {
    const std::span<const std::byte> view(payload);
    if (comm.rank() == 0) {
      comm.send_bytes(1, 7, view);  // warm-up
      (void)comm.recv_message(1, 7);
      const double t0 = now_s();
      for (int i = 0; i < iters; ++i) {
        comm.send_bytes(1, 7, view);
        (void)comm.recv_message(1, 7);
      }
      half_rtt = (now_s() - t0) / (2.0 * iters);
    } else {
      for (int i = 0; i <= iters; ++i) {
        mpisim::Message m = comm.recv_message(0, 7);
        comm.send_bytes(0, 7, std::span<const std::byte>(m.payload));
      }
    }
  });
  return half_rtt;
}

/// The repo's default configuration and cost model: what tricount_cli and
/// tricountd run with.
const core::Config kConfig;
const util::AlphaBetaModel kModel;

graph::EdgeList measure_graph(const LayersArgs& args, Spans& spans,
                              Value& metrics) {
  {
    graph::RmatParams params;
    params.scale = args.scale;
    params.edge_factor = 16.0;
    params.seed = args.seed;
    Scope scope(spans, "graph.generate");
    (void)graph::rmat(params);
  }
  graph::EdgeList g = read_graph(args.graph, spans);
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(args.graph)) / 1.0e6;
  metrics.set("graph.generate_s", spans.total("graph.generate"));
  metrics.set("graph.read_s", spans.total("graph.read"));
  metrics.set("graph.read_MBps", file_mb / spans.total("graph.read"));
  metrics.set("graph.simplify_s", spans.total("graph.simplify"));
  expect_count("serial reference", serial_count(g), args.expect);
  return g;
}

void measure_mpisim(Spans& spans, Value& metrics) {
  std::vector<double> spawn;
  for (int i = 0; i < 20; ++i) {
    Scope scope(spans, "mpisim.run_world_empty");
    spawn.push_back(
        timed([] { mpisim::run_world(kRanks, [](mpisim::Comm&) {}); }));
  }
  metrics.set("mpisim.spawn_ms", 1e3 * median(spawn));
  mpisim::PersistentWorld world(kRanks);
  std::vector<double> jobs;
  {
    Scope scope(spans, "mpisim.run_job_empty_x200");
    for (int i = 0; i < 200; ++i) {
      jobs.push_back(timed([&] { world.run_job([](mpisim::Comm&) {}); }));
    }
  }
  metrics.set("mpisim.job_us", 1e6 * median(jobs));
  const std::size_t small = 8;
  const std::size_t large = std::size_t{1} << 20;
  const double t_small = pingpong_seconds(small, 4000, spans);
  const double t_large = pingpong_seconds(large, 100, spans);
  const double ns_per_byte =
      1e9 * (t_large - t_small) / static_cast<double>(large - small);
  metrics.set("mpisim.msg_us", 1e6 * t_small);
  metrics.set("mpisim.ns_per_byte", ns_per_byte);
  metrics.set("mpisim.alpha_ratio", t_small / kModel.alpha_seconds);
  metrics.set("mpisim.beta_ratio",
              1e-9 * ns_per_byte / kModel.beta_seconds_per_byte);
}

/// The §5.3 steps as their own SPMD jobs (median of three passes: the
/// first one also pays the process's cold allocations), checked against
/// one preprocess_resident call.
core::ResidentPartition measure_preprocessing(mpisim::PersistentWorld& world,
                                              const graph::EdgeList& g,
                                              Spans& spans, Value& metrics) {
  PreSteps pre;
  for (int pass = 0; pass < 3; ++pass) {
    pre = preprocess_steps(world, g, kConfig, spans);
  }
  core::ResidentPartition reference;
  {
    Scope scope(spans, "pre.resident");
    core::RunOptions options;
    options.config = kConfig;
    reference = core::preprocess_resident(world, g, options);
  }
  for (std::size_t r = 0; r < pre.blocks.size(); ++r) {
    const core::Blocks& mine = pre.blocks[r];
    const core::Blocks& ref = reference.blocks[r];
    if (mine.ublock.adj() != ref.ublock.adj() ||
        mine.lblock.adj() != ref.lblock.adj() ||
        mine.tasks.adj() != ref.tasks.adj()) {
      throw Mismatch("step-by-step preprocessing differs from "
                     "preprocess_resident on rank " + std::to_string(r));
    }
  }
  double total = 0.0;
  for (const char* step :
       {"redistribute", "degree_order", "scatter_2d", "edge_count"}) {
    const double t = median(spans.durations(std::string("pre.") + step));
    metrics.set(std::string("pre.") + step + "_s", t);
    total += t;
  }
  metrics.set("pre.total_s", total);
  metrics.set("mpisim.pre.messages", pre.traffic.messages);
  metrics.set("mpisim.pre.bytes", pre.traffic.bytes);
  return make_partition(std::move(pre), kConfig);
}

/// count_resident, then intersect_blocks replayed per rank with each
/// kernel policy forced; the auto replay gives the superstep split.
void measure_counting(mpisim::PersistentWorld& world,
                      const core::ResidentPartition& partition,
                      std::uint64_t expect, Spans& spans, Value& metrics) {
  core::RunResult counted;
  {
    Scope scope(spans, "tc.count_resident");
    counted = core::count_resident(world, partition, kConfig);
  }
  expect_count("count_resident", counted.triangles, expect);
  Traffic traffic;
  traffic.add(counted.per_rank_counters);
  metrics.set("mpisim.tc.messages", traffic.messages);
  metrics.set("mpisim.tc.bytes", traffic.bytes);

  Replay autoplay;
  for (const kernels::KernelPolicy policy :
       {kernels::KernelPolicy::kAuto, kernels::KernelPolicy::kHash,
        kernels::KernelPolicy::kMerge, kernels::KernelPolicy::kBitmap,
        kernels::KernelPolicy::kGalloping}) {
    Replay replay = replay_supersteps(world, partition, kConfig, policy, spans);
    expect_count("replayed intersect_blocks", replay.triangles, expect);
    metrics.set(std::string("kernels.") + kernels::to_string(policy) +
                    ".ns_per_op",
                1e9 * replay.cpu_total /
                    static_cast<double>(
                        std::max<std::uint64_t>(replay.counters.lookups, 1)));
    if (policy == kernels::KernelPolicy::kAuto) autoplay = std::move(replay);
  }
  const kernels::KernelCounters& mix = autoplay.counters;
  metrics.set("kernels.auto.ops", mix.lookups);
  metrics.set("kernels.tasks", mix.intersection_tasks);
  metrics.set("kernels.hash.op_share",
              static_cast<double>(mix.hash_lookups) /
                  static_cast<double>(std::max<std::uint64_t>(mix.lookups, 1)));

  double compute_max = 0.0;
  double wait = 0.0;
  std::vector<double> per_rank(autoplay.cpu.front().size(), 0.0);
  for (std::size_t s = 0; s < autoplay.cpu.size(); ++s) {
    const std::vector<double>& cpu = autoplay.cpu[s];
    const double slowest = *std::max_element(cpu.begin(), cpu.end());
    compute_max += slowest;
    wait += autoplay.step_wall[s] - slowest;
    for (std::size_t r = 0; r < cpu.size(); ++r) per_rank[r] += cpu[r];
    metrics.set("tc.superstep" + std::to_string(s) + "_s",
                autoplay.step_wall[s]);
  }
  const double avg = std::accumulate(per_rank.begin(), per_rank.end(), 0.0) /
                     static_cast<double>(per_rank.size());
  metrics.set("tc.compute_max_s", compute_max);
  metrics.set("tc.imbalance",
              *std::max_element(per_rank.begin(), per_rank.end()) / avg);
  metrics.set("tc.wait_s", wait);
}

/// The whole 2D pipeline against its α–β model, and the other counters.
void measure_counters(const graph::EdgeList& g, std::uint64_t expect,
                      Spans& spans, Value& metrics) {
  {
    core::RunResult run;
    const double wall = timed([&] {
      Scope scope(spans, "core.count_triangles_2d");
      run = core::count_triangles_2d(g, kRanks);
    });
    expect_count("count_triangles_2d", run.triangles, expect);
    metrics.set("model.measured_over_modeled",
                wall / run.total_modeled_seconds());
  }
  {
    core::RunResult run;
    {
      Scope scope(spans, "cetric.count");
      run = cetric::count_triangles_cetric(g, kRanks);
    }
    expect_count("cetric", run.triangles, expect);
    std::uint64_t user_bytes = 0;
    for (const mpisim::PerfCounters& c : run.per_rank_counters) {
      user_bytes += c.user_bytes_sent();
    }
    metrics.set("cetric.count_s", spans.total("cetric.count"));
    metrics.set("cetric.cut_wedges", run.total_cetric().cut_wedges_sent);
    metrics.set("cetric.user_bytes", user_bytes);
  }
  core::SummaOptions options;
  options.grid_rows = kGridQ;
  options.grid_cols = kGridQ;
  core::SummaResult run;
  {
    Scope scope(spans, "summa.count");
    run = core::count_triangles_summa(g, options);
  }
  expect_count("summa", run.triangles, expect);
  metrics.set("summa.count_s", spans.total("summa.count"));
}

/// The read mix replayed on a manual-dispatch Service, then single-request
/// timings: fresh keys miss, a repeated key hits.
void measure_service(const graph::EdgeList& g,
                     const std::vector<std::string>& reads,
                     std::uint64_t expect, Spans& spans, Value& metrics) {
  ServedSession session(spans, expect);
  session.load(g);
  session.serve(reads, kRanks);
  metrics.set("service.submit_us",
              1e6 * median(spans.durations("service.submit")));
  const service::ResultCache::Stats cache = session.svc().cache_stats();
  const service::AdmissionQueue::Stats queue = session.svc().queue_stats();
  std::uint64_t coalesced = 0;
  for (const service::RequestRecord& row : session.svc().records()) {
    if (row.cache == "coalesced") ++coalesced;
  }
  metrics.set("service.cache.hit_ratio",
              static_cast<double>(cache.hits) /
                  static_cast<double>(
                      std::max<std::uint64_t>(cache.hits + cache.misses, 1)));
  metrics.set("service.batch.mean_size",
              static_cast<double>(queue.admitted) /
                  static_cast<double>(
                      std::max<std::uint64_t>(session.batches(), 1)));
  metrics.set("service.coalesced", coalesced);
  metrics.set("service.sheds", session.svc().counters().shed);

  std::uint64_t id = 1u << 30;
  auto count_request = [&](const std::string& kernel) {
    return std::string(R"({"id":)") + std::to_string(++id) +
           R"(,"verb":"count","params":{"algo":"2d","kernel":")" + kernel +
           R"(","overlap":false}})";
  };
  auto serve_one = [&](const std::string& line) {
    return timed([&] {
      session.submit(line);
      session.dispatch();
    });
  };
  std::vector<double> misses;
  for (const char* kernel : {"auto", "merge", "hash", "bitmap", "galloping"}) {
    misses.push_back(serve_one(count_request(kernel)));
  }
  std::vector<double> hits;
  for (int i = 0; i < 50; ++i) hits.push_back(serve_one(count_request("auto")));
  metrics.set("service.hit_us", 1e6 * median(hits));
  metrics.set("service.miss_ms", 1e3 * median(misses));
}

/// Builds the stream state, runs the workload's in-process end-to-end
/// pipeline untraced and traced in alternation (the last traced run,
/// recorded into `e2e`, is reconciled), and takes the per-op stream
/// costs from traced write cycles.
void measure_stream_and_e2e(const LayersArgs& args, const graph::EdgeList& g,
                            mpisim::PersistentWorld& world,
                            const std::vector<stream::Batch>& batches,
                            const std::vector<std::string>& reads,
                            Spans& spans, Spans& e2e, Value& metrics,
                            Value& out) {
  stream::StreamState state;
  {
    Scope scope(spans, "stream.from_graph");
    state = stream::StreamState::from_graph(g);
  }
  expect_count("stream state", state.triangles(), args.expect);
  metrics.set("stream.from_graph_s", spans.total("stream.from_graph"));

  const bool write = args.workload == "served-write";
  const int reps = args.workload == "batch-rmat17" ? 3 : 2;
  const std::size_t per_run = 4;
  WriteCycle cycle{world, state, kConfig};
  std::size_t next_batch = 0;
  auto pipeline = [&](Spans& run_spans) {
    Scope root(run_spans, "e2e");
    if (write) {
      for (std::size_t i = 0; i < per_run; ++i) {
        cycle.run(batches.at(next_batch++), run_spans);
      }
    } else if (args.workload == "served-read") {
      const graph::EdgeList loaded = read_graph(args.graph, run_spans);
      ServedSession session(run_spans, args.expect);
      session.load(loaded);
      session.serve(reads, kRanks);
    } else {
      const graph::EdgeList loaded = read_graph(args.graph, run_spans);
      std::unique_ptr<mpisim::PersistentWorld> w;
      {
        Scope scope(run_spans, "mpisim.world_spawn");
        w = std::make_unique<mpisim::PersistentWorld>(kRanks);
      }
      core::ResidentPartition part = make_partition(
          preprocess_steps(*w, loaded, kConfig, run_spans), kConfig);
      core::RunResult run;
      {
        Scope scope(run_spans, "tc.count_resident");
        run = core::count_resident(*w, part, kConfig);
      }
      expect_count("in-process pipeline", run.triangles, args.expect);
      Scope scope(run_spans, "mpisim.world_join");
      w.reset();
    }
  };
  std::vector<double> untraced;
  std::vector<double> traced;
  Value runs = Value::array();
  for (int i = 0; i < reps; ++i) {
    Spans off(false);
    untraced.push_back(timed([&] { pipeline(off); }));
    Spans on(true);
    traced.push_back(timed([&] { pipeline(on); }));
    e2e = std::move(on);
    Value row = Value::object();
    row.set("untraced_s", untraced.back());
    row.set("traced_s", traced.back());
    runs.push_back(std::move(row));
  }
  metrics.set("trace.overhead_frac", median(traced) / median(untraced) - 1.0);
  Value reconciliation = reconcile(e2e);
  metrics.set("trace.unattributed_frac",
              reconciliation.get("unattributed_frac"));
  out.set("e2e_runs", std::move(runs));
  out.set("reconcile", std::move(reconciliation));

  // The last `per_run` write cycles ran traced: in the last e2e run for
  // served-write, here for the other workloads.
  if (!write) {
    for (std::size_t i = 0; i < per_run; ++i) {
      cycle.run(batches.at(next_batch++), spans);
    }
  }
  const Spans& source = write ? e2e : spans;
  double traced_ops = 0.0;
  for (std::size_t i = next_batch - per_run; i < next_batch; ++i) {
    traced_ops += static_cast<double>(batches[i].ops.size());
  }
  for (const char* step : {"validate", "count_delta", "apply"}) {
    metrics.set(std::string("stream.") + step + "_us_per_op",
                1e6 * source.total(std::string("stream.") + step) /
                    traced_ops);
  }
  metrics.set("stream.shard_bytes_per_op",
              static_cast<double>(cycle.shard_bytes) /
                  static_cast<double>(cycle.ops));
}

Value cmd_layers(const LayersArgs& args) {
  const std::vector<stream::Batch> batches = read_batches(args.ops);
  const std::vector<std::string> reads = read_lines(args.reads);
  Spans probe(true);
  Spans e2e(true);
  Value metrics = Value::object();
  Value out = Value::object();
  {
    Scope root(probe, "probe");
    const graph::EdgeList g = measure_graph(args, probe, metrics);
    measure_mpisim(probe, metrics);
    mpisim::PersistentWorld world(kRanks);
    const core::ResidentPartition partition =
        measure_preprocessing(world, g, probe, metrics);
    measure_counting(world, partition, args.expect, probe, metrics);
    measure_counters(g, args.expect, probe, metrics);
    measure_service(g, reads, args.expect, probe, metrics);
    measure_stream_and_e2e(args, g, world, batches, reads, probe, e2e, metrics,
                           out);
  }
  if (!args.spans_out.empty()) {
    Value all = Value::array();
    for (const auto& [spans, group] :
         {std::pair<const Spans*, const char*>{&probe, "probe"},
          {&e2e, "e2e"}}) {
      const Value part = spans_json(*spans, group);
      for (std::size_t i = 0; i < part.size(); ++i) all.push_back(part.at(i));
    }
    std::ofstream(args.spans_out) << all.dump() << "\n";
  }
  out.set("metrics", std::move(metrics));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_probe reference|replay|validate|layers "
                 "--graph FILE [options]\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_probe: unexpected argument %s\n", argv[i]);
      return 2;
    }
    opts[argv[i] + 2] = argv[i + 1];
  }
  auto opt = [&](const std::string& key, const std::string& fallback = "") {
    const auto it = opts.find(key);
    return it == opts.end() ? fallback : it->second;
  };
  try {
    Value out;
    if (command == "client") {
      out = cmd_client(opt("socket"), opt("requests"),
                       std::stoull(opt("window", "1")),
                       std::stod(opt("seconds", "1")), opt("out"));
    } else if (command == "layers") {
      LayersArgs args;
      args.workload = opt("workload");
      args.graph = opt("graph");
      args.ops = opt("ops");
      args.reads = opt("reads");
      args.spans_out = opt("spans-out");
      args.scale = std::stoi(opt("scale", "16"));
      args.seed = std::stoull(opt("seed", "1"));
      args.expect = std::stoull(opt("expect", "0"));
      out = cmd_layers(args);
    } else {
      const graph::EdgeList g = graph::simplify(graph::read_binary(opt("graph")));
      if (command == "reference") {
        out = cmd_reference(g, std::stoull(opt("top", "0")));
      } else if (command == "replay") {
        out = cmd_replay(g, read_batches(opt("ops")));
      } else if (command == "validate") {
        out = cmd_validate(g, read_batches(opt("ops")));
      } else {
        std::fprintf(stderr, "perfbench_probe: unknown command %s\n",
                     command.c_str());
        return 2;
      }
    }
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const Mismatch& e) {
    std::fprintf(stderr, "perfbench_probe: WRONG COUNT: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: error: %s\n", e.what());
    return 1;
  }
}
