#include "src/tapestry/persistent_store.h"

#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "src/common/assert.h"
#include "src/tapestry/text_fields.h"

namespace tap {

namespace {

constexpr std::size_t kLineMax = 160;

/// Compaction once the log holds this many records AND dwarfs the live set.
constexpr std::size_t kCompactMinRecords = 256;

int format_upsert(char* buf, std::size_t n, const Guid& guid,
                  const PointerRecord& rec) {
  return std::snprintf(
      buf, n, "U %llx %llx %d %llx %u %d %.17g\n",
      static_cast<unsigned long long>(guid.value()),
      static_cast<unsigned long long>(rec.server.value()),
      rec.last_hop.has_value() ? 1 : 0,
      static_cast<unsigned long long>(
          rec.last_hop.has_value() ? rec.last_hop->value() : 0),
      rec.level, rec.past_hole ? 1 : 0, rec.expires_at);
}

/// `H <digit_bits> <num_digits> <generation>`.
bool read_header(const char* line, IdSpec& spec, std::uint64_t& gen) {
  std::string_view rest = line_text(line);
  return next_field(rest) == "H" && read_uint(rest, spec.digit_bits) &&
         read_uint(rest, spec.num_digits) && read_uint(rest, gen) &&
         rest.empty();
}

}  // namespace

PersistentStore::PersistentStore(std::string dir, NodeId id, IdSpec spec)
    : dir_(std::move(dir)), id_(id), spec_(spec) {
  TAP_CHECK(id_.valid() && id_.spec() == spec_,
            "PersistentStore: node id must match the IdSpec");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  TAP_CHECK(!ec, "PersistentStore: cannot create " + dir_);
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(id_.value()));
  wal_path_ = dir_ + "/" + name + ".wal";
  snap_path_ = dir_ + "/" + name + ".snap";
  recover();
}

PersistentStore::~PersistentStore() {
  if (wal_ != nullptr) {
    std::fflush(wal_);
    std::fclose(wal_);
  }
}

void PersistentStore::replay_file(const std::string& path, bool is_wal,
                                  std::uint64_t snap_gen) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  TAP_CHECK(f != nullptr, "PersistentStore: cannot read " + path);
  char line[kLineMax];
  bool saw_header = false;
  long tail = 0;  // offset of the first unreplayed byte (torn-tail cut)
  while (true) {
    tail = std::ftell(f);
    if (std::fgets(line, sizeof line, f) == nullptr) break;
    // A record that did not make it to disk whole — no trailing newline,
    // or fields cut off — is the expected signature of a kill between
    // flushes.  In the log we stop replaying there and truncate, exactly
    // like any WAL; in a snapshot (written + renamed atomically) it is
    // genuine corruption and recovery must fail loudly.
    const bool complete = std::strchr(line, '\n') != nullptr;
    bool parsed = complete;
    bool stale_wal = false;
    std::string_view rest = line_text(line);
    const std::string_view tag = next_field(rest);
    if (parsed && tag == "H") {
      IdSpec file_spec{};
      std::uint64_t gen = 0;
      parsed = read_header(line, file_spec, gen);
      if (parsed) {
        TAP_CHECK(file_spec == spec_,
                  "PersistentStore: IdSpec mismatch in " + path);
        if (is_wal) {
          gen_ = gen;
          // A log no newer than the snapshot means a crash struck between
          // snapshot rename and log truncation: everything in it is
          // already folded into the snapshot; replaying would
          // double-apply.
          stale_wal = gen <= snap_gen;
        }
        saw_header = true;
      }
    } else if (parsed) {
      parsed = saw_header;
      if (parsed && tag == "U") {
        std::uint64_t g = 0, srv = 0, lh = 0;
        bool has_lh = false;
        PointerRecord rec;
        parsed = read_id(rest, spec_, g) && read_id(rest, spec_, srv) &&
                 read_flag(rest, has_lh) && read_id(rest, spec_, lh) &&
                 read_uint(rest, rec.level) &&
                 rec.level <= spec_.num_digits &&
                 read_flag(rest, rec.past_hole) &&
                 read_time(rest, rec.expires_at) && rest.empty();
        if (parsed) {
          rec.server = NodeId(spec_, srv);
          if (has_lh) rec.last_hop = NodeId(spec_, lh);
          mirror_.upsert(Guid(spec_, g), rec);
        }
      } else if (parsed && tag == "R") {
        std::uint64_t g = 0, srv = 0;
        parsed = read_id(rest, spec_, g) && read_id(rest, spec_, srv) &&
                 rest.empty();
        if (parsed) mirror_.remove(Guid(spec_, g), NodeId(spec_, srv));
      } else if (parsed && tag == "X") {
        double now = 0.0;
        parsed = read_time(rest, now) && rest.empty();
        if (parsed) mirror_.remove_expired(now);
      } else if (parsed) {
        parsed = line[0] == '\n' || line[0] == '\0';
      }
      if (parsed && is_wal) ++wal_records_;
    }
    if (!parsed) {
      TAP_CHECK(is_wal, "PersistentStore: corrupt record in " + path);
      break;  // torn WAL tail: keep everything before it
    }
    if (stale_wal) {
      std::fclose(f);
      return;
    }
  }
  const bool torn = std::fgetc(f) != EOF || tail != std::ftell(f);
  std::fclose(f);
  if (is_wal && torn && tail >= 0) {
    // Cut the log at the last whole record so post-recovery appends never
    // concatenate onto torn bytes mid-line.
    std::error_code ec;
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(tail),
                                 ec);
    TAP_CHECK(!ec, "PersistentStore: cannot truncate torn tail of " + path);
  }
}

void PersistentStore::recover() {
  if (wal_ != nullptr) {
    std::fflush(wal_);
    std::fclose(wal_);
    wal_ = nullptr;
  }
  mirror_ = MemoryStore{};
  wal_records_ = 0;
  gen_ = 0;

  std::uint64_t snap_gen = 0;
  if (std::filesystem::exists(snap_path_)) {
    // Peek the snapshot generation first (the log replay fences on it).
    std::FILE* f = std::fopen(snap_path_.c_str(), "r");
    TAP_CHECK(f != nullptr, "PersistentStore: cannot read " + snap_path_);
    char line[kLineMax];
    IdSpec file_spec{};
    const bool ok = std::fgets(line, sizeof line, f) != nullptr &&
                    read_header(line, file_spec, snap_gen);
    std::fclose(f);
    TAP_CHECK(ok, "PersistentStore: bad snapshot header in " + snap_path_);
    replay_file(snap_path_, /*is_wal=*/false, 0);
  }
  const bool have_wal = std::filesystem::exists(wal_path_);
  if (have_wal) replay_file(wal_path_, /*is_wal=*/true, snap_gen);

  if (have_wal && gen_ > snap_gen) {
    // Usable log: keep appending to it.
    wal_ = std::fopen(wal_path_.c_str(), "a");
    TAP_CHECK(wal_ != nullptr, "PersistentStore: cannot append " + wal_path_);
  } else {
    // No log, or a stale one: start a fresh generation.
    gen_ = snap_gen + 1;
    wal_records_ = 0;
    open_wal_for_append();
  }
}

void PersistentStore::open_wal_for_append() {
  wal_ = std::fopen(wal_path_.c_str(), "w");
  TAP_CHECK(wal_ != nullptr, "PersistentStore: cannot write " + wal_path_);
  char header[64];
  const int n = std::snprintf(header, sizeof header, "H %u %u %llu\n",
                              spec_.digit_bits, spec_.num_digits,
                              static_cast<unsigned long long>(gen_));
  std::fputs(header, wal_);
  wal_bytes_ += static_cast<std::size_t>(n);
}

void PersistentStore::append_record(const char* line) {
  TAP_ASSERT(wal_ != nullptr);
  std::fputs(line, wal_);
  wal_bytes_ += std::strlen(line);
  ++wal_records_;
  maybe_compact();
}

void PersistentStore::maybe_compact() {
  if (wal_records_ < kCompactMinRecords ||
      wal_records_ < 4 * (mirror_.size() + 1) ||
      wal_records_ < compact_backoff_)
    return;
  // Write the mirror to a fresh snapshot stamped with the current log
  // generation, publish it atomically, then open a newer-generation log.
  // Every write is verified before the rename: publishing a truncated
  // snapshot and then truncating the log it folded in would be silent,
  // permanent data loss (e.g. on a full disk).  On failure the old
  // snapshot + log stay authoritative and we back off retrying.
  const std::string tmp = snap_path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  TAP_CHECK(f != nullptr, "PersistentStore: cannot write " + tmp);
  std::fprintf(f, "H %u %u %llu\n", spec_.digit_bits, spec_.num_digits,
               static_cast<unsigned long long>(gen_));
  char line[kLineMax];
  mirror_.for_each([&](const Guid& g, const PointerRecord& r) {
    format_upsert(line, sizeof line, g, r);
    std::fputs(line, f);
  });
  const bool wrote = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    compact_backoff_ = wal_records_ * 2;  // don't rewrite on every append
    return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, snap_path_, ec);
  TAP_CHECK(!ec, "PersistentStore: cannot publish " + snap_path_);

  std::fclose(wal_);
  ++gen_;
  wal_records_ = 0;
  compact_backoff_ = 0;
  open_wal_for_append();
  ++compactions_;
}

void PersistentStore::upsert(const Guid& guid, const PointerRecord& record) {
  mirror_.upsert(guid, record);  // validates first; nothing logged on throw
  char line[kLineMax];
  format_upsert(line, sizeof line, guid, record);
  append_record(line);
}

bool PersistentStore::remove(const Guid& guid, const NodeId& server) {
  if (!mirror_.remove(guid, server)) return false;
  char line[kLineMax];
  std::snprintf(line, sizeof line, "R %llx %llx\n",
                static_cast<unsigned long long>(guid.value()),
                static_cast<unsigned long long>(server.value()));
  append_record(line);
  return true;
}

std::size_t PersistentStore::remove_expired(double now) {
  const std::size_t removed = mirror_.remove_expired(now);
  if (removed == 0) return 0;  // replaying nothing is the same as this
  char line[kLineMax];
  std::snprintf(line, sizeof line, "X %.17g\n", now);
  append_record(line);
  return removed;
}

void PersistentStore::flush() {
  if (wal_ == nullptr) return;
  // A checkpoint that could not land its WAL appends must not pretend it
  // did — the manifest written next would describe records recovery can
  // never rebuild.
  TAP_CHECK(std::fflush(wal_) == 0 && std::ferror(wal_) == 0,
            "PersistentStore: WAL write failed for " + wal_path_);
}

StoreStats PersistentStore::stats() const {
  StoreStats s;
  s.backend = "persist";
  s.records = mirror_.size();
  s.wal_records = wal_records_;
  s.wal_bytes = wal_bytes_;
  s.compactions = compactions_;
  return s;
}

}  // namespace tap
