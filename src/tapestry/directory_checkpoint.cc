// ObjectDirectory checkpoint / restore (persistent backend): the manifest
// that records the checkpoint clock, the live membership and the replica
// registry beside the per-node store files.
#include <cstdio>
#include <filesystem>

#include "src/tapestry/object_directory.h"

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
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == 'T') {
      TAP_CHECK(std::sscanf(line, "T %lf", &m.time) == 1,
                "read_manifest: bad T line");
    } else if (line[0] == 'N') {
      unsigned long long id = 0;
      std::size_t loc = 0;
      TAP_CHECK(std::sscanf(line, "N %llx %zu", &id, &loc) == 2,
                "read_manifest: bad N line");
      m.nodes.emplace_back(id, loc);
    } else if (line[0] == 'O') {
      unsigned long long g = 0, s = 0;
      TAP_CHECK(std::sscanf(line, "O %llx %llx", &g, &s) == 2,
                "read_manifest: bad O line");
      m.replicas.emplace_back(g, s);
    } else {
      TAP_CHECK(line[0] == '\n' || line[0] == '\0',
                "read_manifest: unknown line kind in " + path);
    }
  }
  std::fclose(f);
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
