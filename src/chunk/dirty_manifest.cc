#include "chunk/dirty_manifest.h"

#include <cstring>
#include <filesystem>

namespace forkbase {

namespace {
constexpr uint32_t kManifestMagic = 0x46424d31;  // "FBM1"
constexpr char kOpMark = 'D';
constexpr char kOpClear = 'C';
constexpr size_t kRecordBytes = 4 + 1 + 32;  // magic + op + hash

void AppendManifestRecord(std::string* buf, char op, const Hash256& id) {
  char header[5];
  std::memcpy(header, &kManifestMagic, 4);
  header[4] = op;
  buf->append(header, 5);
  buf->append(reinterpret_cast<const char*>(id.bytes.data()), 32);
}
}  // namespace

DirtyManifest::DirtyManifest(std::string path) : path_(std::move(path)) {}

StatusOr<std::unique_ptr<DirtyManifest>> DirtyManifest::Open(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("create_directories(" + dir + "): " + ec.message());
  }
  std::unique_ptr<DirtyManifest> manifest(
      new DirtyManifest(dir + "/dirty-manifest.fbm"));
  manifest->existed_ = std::filesystem::exists(manifest->path_, ec) && !ec;
  FB_RETURN_IF_ERROR(manifest->Replay());
  return manifest;
}

Status DirtyManifest::Replay() {
  std::lock_guard<std::mutex> lock(mu_);
  auto apply = [this](Slice rest) -> size_t {
    if (rest.size() < kRecordBytes) return 0;  // torn tail or EOF
    uint32_t magic = 0;
    std::memcpy(&magic, rest.data(), 4);
    const char op = rest[4];
    if (magic != kManifestMagic || (op != kOpMark && op != kOpClear)) {
      return 0;  // corruption: treat like a torn tail, keep the good prefix
    }
    Hash256 id;
    std::memcpy(id.bytes.data(), rest.data() + 5, 32);
    if (op == kOpMark) {
      dirty_.insert(id);
    } else {
      dirty_.erase(id);
    }
    return kRecordBytes;
  };
  return ReplayJournal(path_, apply, &file_).status();
}

Status DirtyManifest::AppendLocked(char op, std::span<const Hash256> ids,
                                   size_t count) {
  if (count == 0) return Status::OK();
  std::string buffer;
  buffer.reserve(count * kRecordBytes);
  for (const Hash256& id : ids) {
    const bool present = dirty_.count(id) > 0;
    if ((op == kOpMark) == present) continue;  // idempotent per id
    AppendManifestRecord(&buffer, op, id);
  }
  if (buffer.empty()) return Status::OK();
  return file_.Append(buffer, /*sync=*/false);
}

Status DirtyManifest::MarkDirty(std::span<const Hash256> ids) {
  std::lock_guard<std::mutex> lock(mu_);
  FB_RETURN_IF_ERROR(AppendLocked(kOpMark, ids, ids.size()));
  for (const Hash256& id : ids) dirty_.insert(id);
  return Status::OK();
}

Status DirtyManifest::MarkClean(std::span<const Hash256> ids) {
  std::lock_guard<std::mutex> lock(mu_);
  // Journal only ids the manifest actually holds: a CLEAR for an id that
  // was never marked would replay as a no-op but bloat the journal and
  // skew the record count the compaction trigger below watches.
  std::vector<Hash256> held;
  held.reserve(ids.size());
  for (const Hash256& id : ids) {
    if (dirty_.count(id)) held.push_back(id);
  }
  if (held.empty()) return Status::OK();
  FB_RETURN_IF_ERROR(AppendLocked(kOpClear, held, held.size()));
  for (const Hash256& id : held) dirty_.erase(id);
  // Once MARK/CLEAR churn dominates the live set, fold the journal down to
  // the live marks. The floor keeps small stores from compacting on every
  // drain.
  if (file_.size() / kRecordBytes > 2 * dirty_.size() + 1024) {
    return CompactLocked();
  }
  return Status::OK();
}

Status DirtyManifest::CompactLocked() {
  std::string buffer;
  buffer.reserve(dirty_.size() * kRecordBytes);
  for (const Hash256& id : dirty_) {
    AppendManifestRecord(&buffer, kOpMark, id);
  }
  FB_RETURN_IF_ERROR(file_.Replace(buffer));
  ++compactions_;
  return Status::OK();
}

std::vector<Hash256> DirtyManifest::DirtyIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Hash256>(dirty_.begin(), dirty_.end());
}

size_t DirtyManifest::dirty_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_.size();
}

uint64_t DirtyManifest::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.size() / kRecordBytes;
}

uint64_t DirtyManifest::compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

}  // namespace forkbase
