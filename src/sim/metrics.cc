#include "src/sim/metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/assert.h"

namespace tap::metrics {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Gauge::add(double d) noexcept {
  if (!enabled()) return;
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TAP_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  TAP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                    bounds_.end(),
            "histogram bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double x) noexcept {
  if (!enabled()) return;
  std::size_t i = 0;
  while (i < bounds_.size() && x > bounds_[i]) ++i;  // le semantics
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (
      !sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

// Shortest round-trip-exact decimal for a double; integral values print
// without a fractional part so counters and exact sums stay stable text.
std::string fmt_num(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_bound(double b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", b);
  return buf;
}

}  // namespace

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const std::string& help,
                                          const Labels& labels, Kind kind,
                                          bool volatile_metric) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string label_str;  // Prometheus form: k="v",k2="v2"
  std::string label_key;  // JSON-safe form:  k=v,k2=v2
  for (const auto& [k, v] : sorted) {
    if (!label_str.empty()) {
      label_str += ',';
      label_key += ',';
    }
    label_str += k + "=\"" + v + "\"";
    label_key += k + "=" + v;
  }
  std::string key = name;
  if (!label_key.empty()) key += "{" + label_key + "}";

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    TAP_CHECK(it->second.kind == kind,
              "metric re-registered with a different kind: " + key);
    return it->second;
  }
  Entry& e = entries_[key];
  e.name = name;
  e.help = help;
  e.label_str = label_str;
  e.kind = kind;
  e.volatile_metric = volatile_metric;
  return e;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels, bool volatile_metric) {
  Entry& e = find_or_create(name, help, labels, Kind::kCounter,
                            volatile_metric);
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels, bool volatile_metric) {
  Entry& e = find_or_create(name, help, labels, Kind::kGauge, volatile_metric);
  if (!e.g) e.g = std::make_unique<Gauge>();
  return *e.g;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds,
                               const Labels& labels, bool volatile_metric) {
  Entry& e = find_or_create(name, help, labels, Kind::kHistogram,
                            volatile_metric);
  if (!e.h) {
    e.h = std::make_unique<Histogram>(std::move(bounds));
  } else {
    TAP_CHECK(e.h->bounds() == bounds,
              "histogram re-registered with different bounds: " + name);
  }
  return *e.h;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    if (e.c) e.c->reset();
    if (e.g) e.g->reset();
    if (e.h) e.h->reset();
  }
}

std::string Registry::snapshot_json(bool include_volatile) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [key, e] : entries_) {  // std::map: keys already sorted
    if (e.volatile_metric && !include_volatile) continue;
    if (!first) out += ',';
    first = false;
    out += "\"" + key + "\":";
    switch (e.kind) {
      case Kind::kCounter:
        out += fmt_num(static_cast<double>(e.c->value()));
        break;
      case Kind::kGauge:
        out += fmt_num(e.g->value());
        break;
      case Kind::kHistogram: {
        out += "{\"buckets\":[";
        for (std::size_t i = 0; i <= e.h->bounds().size(); ++i) {
          if (i > 0) out += ',';
          out += fmt_num(static_cast<double>(e.h->bucket_count(i)));
        }
        out += "],\"sum\":" + fmt_num(e.h->sum()) +
               ",\"count\":" + fmt_num(static_cast<double>(e.h->count())) +
               "}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string last_family;
  for (const auto& [key, e] : entries_) {
    if (e.name != last_family) {  // map order keeps families adjacent
      last_family = e.name;
      const char* type = e.kind == Kind::kCounter   ? "counter"
                         : e.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
      out += "# HELP " + e.name + " " + e.help + "\n";
      out += "# TYPE " + e.name + " " + std::string(type) + "\n";
    }
    std::string series = e.label_str.empty() ? "" : "{" + e.label_str + "}";
    switch (e.kind) {
      case Kind::kCounter:
        out += e.name + series + " " +
               fmt_num(static_cast<double>(e.c->value())) + "\n";
        break;
      case Kind::kGauge:
        out += e.name + series + " " + fmt_num(e.g->value()) + "\n";
        break;
      case Kind::kHistogram: {
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < e.h->bounds().size(); ++i) {
          cum += e.h->bucket_count(i);
          std::string le = e.label_str.empty()
                               ? "le=\"" + fmt_bound(e.h->bounds()[i]) + "\""
                               : e.label_str + ",le=\"" +
                                     fmt_bound(e.h->bounds()[i]) + "\"";
          out += e.name + "_bucket{" + le + "} " +
                 fmt_num(static_cast<double>(cum)) + "\n";
        }
        std::string le_inf = e.label_str.empty()
                                 ? "le=\"+Inf\""
                                 : e.label_str + ",le=\"+Inf\"";
        out += e.name + "_bucket{" + le_inf + "} " +
               fmt_num(static_cast<double>(e.h->count())) + "\n";
        out += e.name + "_sum" + series + " " + fmt_num(e.h->sum()) + "\n";
        out += e.name + "_count" + series + " " +
               fmt_num(static_cast<double>(e.h->count())) + "\n";
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> Registry::family_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [key, e] : entries_) {
    if (names.empty() || names.back() != e.name) names.push_back(e.name);
  }
  return names;
}

Registry& registry() {
  static Registry r;
  return r;
}

void reset_all() { registry().reset_values(); }
std::string snapshot_json(bool include_volatile) {
  return registry().snapshot_json(include_volatile);
}
std::string prometheus_text() { return registry().prometheus_text(); }

// --- well-known metrics -------------------------------------------------

Counter& messages_total() {
  static Counter& c = registry().counter(
      "tapestry_messages_total",
      "Inter-node messages booked by Transport::send and NodeRegistry::acct");
  return c;
}

Counter& locate_total() {
  static Counter& c = registry().counter(
      "tapestry_locate_total", "Locate operations completed (sync or async)");
  return c;
}

Counter& locate_found_total() {
  static Counter& c = registry().counter(
      "tapestry_locate_found_total",
      "Locate operations that resolved a live replica");
  return c;
}

Counter& publish_total() {
  static Counter& c = registry().counter(
      "tapestry_publish_total", "Publish operations started (sync or async)");
  return c;
}

Counter& unpublish_total() {
  static Counter& c = registry().counter("tapestry_unpublish_total",
                                         "Unpublish operations started");
  return c;
}

Histogram& locate_hops() {
  static Histogram& h = registry().histogram(
      "tapestry_locate_hops", "Overlay hops per completed locate",
      {0, 1, 2, 3, 4, 6, 8, 12, 16, 24});
  return h;
}

Counter& cache_hits_total() {
  static Counter& c = registry().counter(
      "tapestry_cache_hits_total", "Locate-cache hits served to queries");
  return c;
}

Counter& cache_fallbacks_total() {
  static Counter& c = registry().counter(
      "tapestry_cache_fallbacks_total",
      "Locate-cache hits whose holder verification failed");
  return c;
}

Counter& hotspot_promotions_total() {
  static Counter& c = registry().counter(
      "tapestry_hotspot_promotions_total",
      "Extra replicas published by the hotspot manager");
  return c;
}

Counter& hotspot_demotions_total() {
  static Counter& c = registry().counter(
      "tapestry_hotspot_demotions_total",
      "Extra replicas withdrawn by the hotspot manager");
  return c;
}

Counter& churn_joins_total() {
  static Counter& c = registry().counter(
      "tapestry_churn_events_total", "Churn events processed by kind",
      {{"kind", "join"}});
  return c;
}

Counter& churn_leaves_total() {
  static Counter& c = registry().counter(
      "tapestry_churn_events_total", "Churn events processed by kind",
      {{"kind", "leave"}});
  return c;
}

Counter& churn_fails_total() {
  static Counter& c = registry().counter(
      "tapestry_churn_events_total", "Churn events processed by kind",
      {{"kind", "fail"}});
  return c;
}

Counter& heartbeat_sweeps_total() {
  static Counter& c = registry().counter(
      "tapestry_heartbeat_sweeps_total",
      "Periodic §6.5 heartbeat sweeps executed");
  return c;
}

Counter& partition_transitions_total() {
  static Counter& c = registry().counter(
      "tapestry_partition_transitions_total",
      "Partition set/heal transitions applied to the overlay");
  return c;
}

Counter& replica_writes_total() {
  static Counter& c = registry().counter(
      "tapestry_replica_writes_total",
      "Pointer records mirrored to replica holders (acknowledged writes)");
  return c;
}

Counter& replica_quorum_reads_total() {
  static Counter& c = registry().counter(
      "tapestry_replica_quorum_reads_total",
      "R-of-N quorum reads issued at roots after a locate miss");
  return c;
}

Counter& replica_read_repairs_total() {
  static Counter& c = registry().counter(
      "tapestry_replica_read_repairs_total",
      "Stale or missing replica copies refreshed by read-repair");
  return c;
}

Counter& replica_rereplications_total() {
  static Counter& c = registry().counter(
      "tapestry_replica_rereplications_total",
      "Holder sets re-replicated onto a replacement after a holder death");
  return c;
}

Counter& transport_messages_total() {
  static Counter& c = registry().counter(
      "tapestry_transport_messages_total",
      "Inter-node messages delivered through the transport seam");
  return c;
}

Counter& transport_bytes_total() {
  static Counter& c = registry().counter(
      "tapestry_transport_bytes_total",
      "Datagram bytes encoded by serializing transports");
  return c;
}

Gauge& live_nodes() {
  static Gauge& g = registry().gauge("tapestry_live_nodes",
                                     "Live overlay members (sampled)");
  return g;
}

Gauge& event_queue_depth() {
  static Gauge& g = registry().gauge(
      "tapestry_event_queue_depth", "Pending event-queue actions (sampled)");
  return g;
}

Gauge& store_records() {
  static Gauge& g = registry().gauge(
      "tapestry_store_records",
      "Object-pointer records across all node stores (sampled)");
  return g;
}

Gauge& store_wal_bytes() {
  static Gauge& g = registry().gauge(
      "tapestry_store_wal_bytes",
      "WAL bytes appended across all node stores (sampled)");
  return g;
}

Histogram& repair_wave_seconds() {
  static Histogram& h = registry().histogram(
      "tapestry_repair_wave_seconds",
      "Wall-clock duration of leave/fail repair waves",
      {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0}, {}, /*volatile_metric=*/true);
  return h;
}

Counter& stripe_lock_contention_total() {
  static Counter& c = registry().counter(
      "tapestry_stripe_lock_contention_total",
      "Node stripe-lock acquisitions that had to wait", {},
      /*volatile_metric=*/true);
  return c;
}

void touch_builtin() {
  messages_total();
  locate_total();
  locate_found_total();
  publish_total();
  unpublish_total();
  locate_hops();
  cache_hits_total();
  cache_fallbacks_total();
  hotspot_promotions_total();
  hotspot_demotions_total();
  churn_joins_total();
  churn_leaves_total();
  churn_fails_total();
  heartbeat_sweeps_total();
  partition_transitions_total();
  replica_writes_total();
  replica_quorum_reads_total();
  replica_read_repairs_total();
  replica_rereplications_total();
  transport_messages_total();
  transport_bytes_total();
  live_nodes();
  event_queue_depth();
  store_records();
  store_wal_bytes();
  repair_wave_seconds();
  stripe_lock_contention_total();
}

// --- scrape endpoint ----------------------------------------------------

ScrapeServer::ScrapeServer(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&got), &len) == 0)
    bound_port_ = ntohs(got.sin_port);
  thread_ = std::thread([this] { serve(); });
}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::serve() {
  const int fd = listen_fd_;  // set before the thread started
  for (;;) {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    char buf[1024];
    (void)::recv(conn, buf, sizeof(buf), 0);  // drain the request line(s)
    const std::string body = prometheus_text();
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    std::size_t sent = 0;
    while (sent < resp.size()) {
      ssize_t n = ::send(conn, resp.data() + sent, resp.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

void ScrapeServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace tap::metrics
