#include "benchmark/spans.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "benchmark/common.h"

namespace tapbench::spans {
namespace {

struct Span {
  const char* name;
  std::int64_t start, end;
  std::uint32_t id, parent, op;
  std::uint16_t tid;
  Cat cat;
};

// Span ids come from per-thread blocks so pool threads never contend on
// one counter; id 0 means "no parent".
constexpr std::uint32_t kIdBlock = 4096;

std::atomic<bool> g_on{false};
// Whether the op the main thread has open is traced (see kMaxSpans).
std::atomic<bool> g_accept{false};
std::atomic<std::uint32_t> g_next_block{1};
std::atomic<std::uint32_t> g_next_op{1};
// The op span the main thread has open: the parent of spans recorded on
// pool threads, whose own stacks are empty.
std::atomic<std::uint32_t> g_root_span{0};
std::atomic<std::uint32_t> g_root_op{0};
std::atomic<std::uint64_t> g_ops_total{0}, g_ops_traced{0};
std::atomic<std::size_t> g_flushed{0};  // == g_done.size()

std::mutex g_mu;
std::vector<Span> g_done;      // spans of exited threads, guarded by g_mu
std::uint16_t g_next_tid = 0;  // guarded by g_mu

struct Buffer {
  struct Open {
    std::uint32_t id, op;
  };
  Buffer() {
    std::lock_guard<std::mutex> lock(g_mu);
    tid = g_next_tid++;
  }
  ~Buffer() { flush(); }

  void flush() {
    std::lock_guard<std::mutex> lock(g_mu);
    g_done.insert(g_done.end(), spans.begin(), spans.end());
    g_flushed.store(g_done.size());
    spans.clear();
  }
  std::uint32_t next_id() {
    if (next == block_end) {
      next = g_next_block.fetch_add(1, std::memory_order_relaxed) * kIdBlock;
      block_end = next + kIdBlock;
    }
    return next++;
  }

  std::vector<Span> spans;
  std::vector<Open> stack;
  std::uint16_t tid = 0;
  std::uint32_t next = 0, block_end = 0;
};

Buffer& buffer() {
  thread_local Buffer b;
  return b;
}

const char* transport_span_name(tap::MessageKind kind) {
  static const std::array<std::string, tap::kWireKindCount> names = [] {
    std::array<std::string, tap::kWireKindCount> n;
    for (std::size_t k = 0; k < n.size(); ++k)
      n[k] = std::string("transport.") +
             tap::message_kind_name(static_cast<tap::MessageKind>(k));
    return n;
  }();
  return names[static_cast<std::size_t>(kind)].c_str();
}

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kOp: return "op";
    case Cat::kTransport: return "transport";
    case Cat::kRepair: return "repair";
  }
  return "?";
}

}  // namespace

Scope::Scope(const char* name, Cat cat)
    : name_(name), cat_(cat), on_(g_on.load(std::memory_order_relaxed)) {
  if (!on_) return;
  Buffer& b = buffer();
  if (cat_ == Cat::kOp) {
    g_ops_total.fetch_add(1, std::memory_order_relaxed);
    on_ = g_flushed.load() + b.spans.size() < kMaxSpans;
    g_accept.store(on_);
    if (!on_) return;
    g_ops_traced.fetch_add(1, std::memory_order_relaxed);
    id_ = b.next_id();
    op_ = g_next_op.fetch_add(1, std::memory_order_relaxed);
    parent_ = b.stack.empty() ? 0 : b.stack.back().id;
    g_root_span.store(id_, std::memory_order_release);
    g_root_op.store(op_, std::memory_order_release);
  } else {
    on_ = g_accept.load(std::memory_order_acquire);
    if (!on_) return;
    id_ = b.next_id();
    if (b.stack.empty()) {
      parent_ = g_root_span.load(std::memory_order_acquire);
      op_ = g_root_op.load(std::memory_order_acquire);
    } else {
      parent_ = b.stack.back().id;
      op_ = b.stack.back().op;
    }
  }
  b.stack.push_back({id_, op_});
  start_ = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  Buffer& b = buffer();
  b.stack.pop_back();
  if (cat_ == Cat::kOp) {
    g_accept.store(false);
    g_root_span.store(0, std::memory_order_release);
    g_root_op.store(0, std::memory_order_release);
  }
  b.spans.push_back({name_, start_, end, id_, parent_, op_, b.tid, cat_});
}

void start() {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_done.clear();
    g_flushed.store(0);
  }
  buffer().spans.clear();
  g_ops_total.store(0);
  g_ops_traced.store(0);
  g_on.store(true);
}

void stop() { g_on.store(false); }

Summary write_and_analyse(const std::string& path, std::size_t max_events) {
  buffer().flush();
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    all.swap(g_done);
    g_flushed.store(0);
  }
  Summary out;
  out.spans = all.size();
  out.ops_total = g_ops_total.load();
  out.ops_traced = g_ops_traced.load();
  if (all.empty()) return out;

  std::uint32_t min_id = UINT32_MAX, max_id = 0;
  for (const Span& s : all) {
    min_id = std::min(min_id, s.id);
    max_id = std::max(max_id, s.id);
  }
  std::vector<std::uint32_t> index_of(max_id - min_id + 1, UINT32_MAX);
  for (std::size_t i = 0; i < all.size(); ++i)
    index_of[all[i].id - min_id] = static_cast<std::uint32_t>(i);
  auto find = [&](std::uint32_t id) -> const Span* {
    if (id < min_id || id > max_id) return nullptr;
    const std::uint32_t i = index_of[id - min_id];
    return i == UINT32_MAX ? nullptr : &all[i];
  };

  // Children grouped by parent, each group ordered by start time.
  std::vector<std::uint32_t> order(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (all[a].parent != all[b].parent) return all[a].parent < all[b].parent;
    return all[a].start < all[b].start;
  });

  // self = duration minus the union of the children's intervals (clipped
  // to the parent): children on pool threads overlap each other.
  std::vector<std::int64_t> covered(all.size(), 0);
  for (std::size_t lo = 0; lo < order.size();) {
    const std::uint32_t parent = all[order[lo]].parent;
    std::size_t hi = lo;
    while (hi < order.size() && all[order[hi]].parent == parent) ++hi;
    if (const Span* p = find(parent)) {
      std::int64_t sum = 0, cur_lo = 0, cur_hi = -1;
      for (std::size_t k = lo; k < hi; ++k) {
        const Span& c = all[order[k]];
        const std::int64_t s = std::max(c.start, p->start);
        const std::int64_t e = std::min(c.end, p->end);
        if (e <= s) continue;
        if (s > cur_hi) {
          if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
          cur_lo = s;
          cur_hi = e;
        } else {
          cur_hi = std::max(cur_hi, e);
        }
      }
      if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
      covered[static_cast<std::size_t>(p - all.data())] = sum;
    }
    lo = hi;
  }
  double self[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < all.size(); ++i)
    self[static_cast<int>(all[i].cat)] +=
        static_cast<double>(all[i].end - all[i].start - covered[i]);
  const double total = self[0] + self[1] + self[2];
  if (total > 0.0) {
    out.op = self[0] / total;
    out.transport = self[1] / total;
    out.repair = self[2] / total;
  }

  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (all[a].op != all[b].op) return all[a].op < all[b].op;
    return all[a].start < all[b].start;
  });
  std::int64_t t0 = all[0].start;
  for (const Span& s : all) t0 = std::min(t0, s.start);
  const std::size_t written = std::min(max_events, order.size());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "tapbench: cannot write %s\n", path.c_str());
    return out;
  }
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_recorded\":"
               "%zu,\"spans_written\":%zu,\"ops_traced\":%llu,\"ops_total\":"
               "%llu},\"traceEvents\":[",
               all.size(), written,
               static_cast<unsigned long long>(out.ops_traced),
               static_cast<unsigned long long>(out.ops_total));
  for (std::size_t k = 0; k < written; ++k) {
    const Span& s = all[order[k]];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"op\":%u}}",
                 k == 0 ? "" : ",", s.name, cat_name(s.cat),
                 static_cast<unsigned>(s.tid),
                 static_cast<double>(s.start - t0) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, s.id, s.parent,
                 s.op);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return out;
}

tap::Message TracedNetwork::SpanTransport::deliver(const tap::Message& m) {
  Scope s(transport_span_name(m.kind), Cat::kTransport);
  return inner_.deliver(m);
}

void TracedNetwork::SpanRepair::purge_dead_neighbor(tap::TapestryNode& at,
                                                    tap::NodeId dead,
                                                    tap::Trace* trace) {
  Scope s("repair.purge_dead_neighbor", Cat::kRepair);
  inner_.purge_dead_neighbor(at, dead, trace);
}

TracedNetwork::TracedNetwork(tap::Network& net)
    : net_(net), transport_(net.transport()), repair_(net.maintenance()) {
  bind(&transport_, &repair_);
}

TracedNetwork::~TracedNetwork() {
  bind(&net_.transport(), &net_.maintenance());
}

void TracedNetwork::bind(tap::Transport* transport,
                         tap::RepairHandler* repair) {
  net_.router().bind_transport(transport);
  net_.directory().bind_transport(transport);
  net_.maintenance().bind_transport(transport);
  net_.router().bind_repair(repair);
}

}  // namespace tapbench::spans
