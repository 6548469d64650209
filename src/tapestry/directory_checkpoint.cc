// ObjectDirectory checkpoint / restore (persistent backend): the manifest
// that records the checkpoint clock, the live membership and the replica
// registry beside the per-node store files.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

#include "src/tapestry/object_directory.h"
#include "src/tapestry/text_fields.h"

namespace tap {

void ObjectDirectory::checkpoint(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  TAP_CHECK(!ec, "checkpoint: cannot create " + dir);
  // Push every store's buffered durable state first: the manifest must
  // never describe records the WALs have not seen.
  for (const auto& n : reg_.nodes()) n->store().flush();

  const std::string tmp = dir + "/manifest.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  TAP_CHECK(f != nullptr, "checkpoint: cannot write " + tmp);
  std::fprintf(f, "T %.17g\n", events_.now());
  for (const auto& n : reg_.nodes())
    if (n->alive)
      std::fprintf(f, "N %llx %zu\n",
                   static_cast<unsigned long long>(n->id().value()),
                   n->location());
  for (const auto& [guid, servers] : replicas_)
    for (const NodeId& s : servers)
      std::fprintf(f, "O %llx %llx\n",
                   static_cast<unsigned long long>(guid.value()),
                   static_cast<unsigned long long>(s.value()));
  // Verify before the atomic publish: renaming a truncated manifest over
  // the previous good one would make the next restore silently rebuild a
  // smaller overlay.
  const bool wrote = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  TAP_CHECK(wrote && closed, "checkpoint: manifest write failed in " + dir);
  std::filesystem::rename(tmp, dir + "/manifest", ec);
  TAP_CHECK(!ec, "checkpoint: cannot publish " + dir + "/manifest");
}

ObjectDirectory::CheckpointManifest ObjectDirectory::read_manifest(
    const std::string& dir) {
  CheckpointManifest m;
  const std::string path = dir + "/manifest";
  std::FILE* f = std::fopen(path.c_str(), "r");
  TAP_CHECK(f != nullptr, "read_manifest: cannot read " + path);
  char line[128];
  bool ok = true;
  while (ok && std::fgets(line, sizeof line, f) != nullptr) {
    // Every field parses whole, as the writer above emits it; a line
    // without its newline is cut short or too long, never a record.
    std::string_view rest = line_text(line);
    const std::string_view tag = next_field(rest);
    ok = std::strchr(line, '\n') != nullptr;
    if (ok && tag == "T") {
      // The clock restore() hands to run_until: finite and not negative.
      ok = read_time(rest, m.time) && std::isfinite(m.time) && m.time >= 0.0;
    } else if (ok && tag == "N") {
      std::uint64_t id = 0;
      std::size_t loc = 0;
      ok = read_uint(rest, id, 16) && read_uint(rest, loc);
      if (ok) m.nodes.emplace_back(id, loc);
    } else if (ok && tag == "O") {
      std::uint64_t g = 0, s = 0;
      ok = read_uint(rest, g, 16) && read_uint(rest, s, 16);
      if (ok) m.replicas.emplace_back(g, s);
    } else {
      ok = false;
    }
    ok = ok && rest.empty();
  }
  std::fclose(f);
  TAP_CHECK(ok, "read_manifest: malformed line in " + path + ": " +
                    std::string(line_text(line)));
  return m;
}

double ObjectDirectory::restore(const std::string& dir) {
  const CheckpointManifest m = read_manifest(dir);
  replicas_.clear();
  for (const auto& [g, s] : m.replicas)
    replicas_[Guid(params_.id, g)].push_back(NodeId(params_.id, s));
  return m.time;
}

}  // namespace tap
