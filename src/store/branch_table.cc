#include "store/branch_table.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/codec.h"

namespace forkbase {

namespace {
// A record is [u32 body length][first 8 bytes of SHA-256(body)][body]; the
// body is an op byte, the length-prefixed key and branch, and for a set the
// 32-byte uid.
constexpr char kOpSet = 'S';
constexpr char kOpDelete = 'D';
constexpr size_t kChecksumBytes = 8;

void EncodeRecord(const std::string& key, const std::string& branch,
                  const Hash256& uid, std::string* out) {
  std::string body(1, uid.IsNull() ? kOpDelete : kOpSet);
  PutLengthPrefixed(&body, Slice(key));
  PutLengthPrefixed(&body, Slice(branch));
  if (!uid.IsNull()) {
    body.append(reinterpret_cast<const char*>(uid.bytes.data()), 32);
  }
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  const Hash256 checksum = Sha256(Slice(body));
  out->append(reinterpret_cast<const char*>(checksum.bytes.data()),
              kChecksumBytes);
  out->append(body);
}

/// Decodes the record at the front of `rest`; returns its length, or 0 for
/// a short, checksum-failing or malformed record (a torn tail).
size_t DecodeRecord(Slice rest, BranchTable::HeadUpdate* update) {
  Decoder dec(rest);
  uint32_t length = 0;
  Slice checksum, body, op, key, branch, uid;
  if (!dec.GetFixed32(&length) || !dec.GetRaw(kChecksumBytes, &checksum) ||
      !dec.GetRaw(length, &body) ||
      std::memcmp(Sha256(body).bytes.data(), checksum.data(),
                  kChecksumBytes) != 0) {
    return 0;
  }
  Decoder fields(body);
  if (!fields.GetRaw(1, &op) || !fields.GetLengthPrefixed(&key) ||
      !fields.GetLengthPrefixed(&branch)) {
    return 0;
  }
  update->key = key.ToString();
  update->branch = branch.ToString();
  update->uid = Hash256::Null();
  if (op[0] == kOpSet) {
    if (!fields.GetRaw(32, &uid)) return 0;
    std::memcpy(update->uid.bytes.data(), uid.data(), 32);
  } else if (op[0] != kOpDelete) {
    return 0;
  }
  return fields.AtEnd() ? dec.position() : 0;
}
}  // namespace

Status BranchTable::Attach(const std::string& dir, bool fsync) {
  std::scoped_lock lock(write_mu_, mu_);
  const std::string path = dir + "/heads.fbh";
  const std::string tsv = dir + "/branches.tsv";
  durable_ = true;
  fsync_ = fsync;
  std::error_code ec;
  const bool fresh = !std::filesystem::exists(path, ec);
  const bool legacy = fresh && std::filesystem::exists(tsv, ec);
  if (legacy) {
    // The imported heads land as one atomic snapshot before replay opens
    // the log, so the log never exists without them: a crash or a failed
    // write here leaves no log, and the next attach imports again.
    FB_RETURN_IF_ERROR(ImportTsvLocked(tsv));
    FB_RETURN_IF_ERROR(AtomicReplaceFile(path, SnapshotLocked()));
  }
  // Replay re-applies an imported snapshot; a set is idempotent.
  auto apply = [this](Slice rest) {
    HeadUpdate update;
    const size_t length = DecodeRecord(rest, &update);
    if (length > 0) ApplyLocked(update);
    return length;
  };
  FB_ASSIGN_OR_RETURN(log_records_, ReplayJournal(path, apply, &log_));
  if (legacy) {
    std::filesystem::remove(tsv, ec);
  } else if (fresh && fsync && !FsyncPath(dir)) {
    return Status::IOError("fsync " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status BranchTable::WriteSnapshot(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return AtomicReplaceFile(dir + "/heads.fbh", SnapshotLocked());
}

StatusOr<Hash256> BranchTable::Lookup(const std::string& key,
                                      const std::string& branch) const {
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return Status::NotFound("key " + key);
  auto bit = kit->second.find(branch);
  if (bit == kit->second.end()) {
    return Status::NotFound("branch " + branch + " of key " + key);
  }
  return bit->second;
}

StatusOr<Hash256> BranchTable::Head(const std::string& key,
                                    const std::string& branch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(key, branch);
}

Status BranchTable::SetHeads(std::span<const HeadUpdate> updates) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return LogAndApplyLocked(updates);
}

Status BranchTable::SetHead(const std::string& key, const std::string& branch,
                            const Hash256& uid) {
  const HeadUpdate update{key, branch, uid};
  return SetHeads({&update, 1});
}

Status BranchTable::Create(const std::string& key, const std::string& branch,
                           const Hash256& uid) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (Lookup(key, branch).ok()) {
    return Status::AlreadyExists("branch " + branch + " of key " + key);
  }
  const HeadUpdate update{key, branch, uid};
  return LogAndApplyLocked({&update, 1});
}

Status BranchTable::Rename(const std::string& key, const std::string& from,
                           const std::string& to) {
  std::lock_guard<std::mutex> lock(write_mu_);
  FB_ASSIGN_OR_RETURN(Hash256 uid, Lookup(key, from));
  if (Lookup(key, to).ok()) {
    return Status::AlreadyExists("branch " + to + " of key " + key);
  }
  // The set is logged first: a torn append can leave both names, never
  // neither.
  const HeadUpdate updates[] = {{key, to, uid}, {key, from, Hash256::Null()}};
  return LogAndApplyLocked(updates);
}

Status BranchTable::Delete(const std::string& key, const std::string& branch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  FB_RETURN_IF_ERROR(Lookup(key, branch).status());
  const HeadUpdate update{key, branch, Hash256::Null()};
  return LogAndApplyLocked({&update, 1});
}

Status BranchTable::LogAndApplyLocked(std::span<const HeadUpdate> updates) {
  if (updates.empty()) return Status::OK();
  if (durable_) {
    std::string run;
    for (const HeadUpdate& u : updates) {
      EncodeRecord(u.key, u.branch, u.uid, &run);
    }
    FB_RETURN_IF_ERROR(log_.Append(run, fsync_));
    log_records_ += updates.size();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const HeadUpdate& u : updates) ApplyLocked(u);
  }
  // Compact once records exceed 2x the live heads plus 1024. The change is
  // durable already: a failed compaction leaves the old log in place, and
  // the next append tries again.
  if (durable_ && log_records_ > 2 * live_ + 1024) (void)CompactLocked();
  return Status::OK();
}

void BranchTable::ApplyLocked(const HeadUpdate& update) {
  if (!update.uid.IsNull()) {
    live_ += heads_[update.key].insert_or_assign(update.branch, update.uid)
                 .second;
    return;
  }
  auto kit = heads_.find(update.key);
  if (kit == heads_.end() || kit->second.erase(update.branch) == 0) return;
  --live_;
  if (kit->second.empty()) heads_.erase(kit);
}

Status BranchTable::ImportTsvLocked(const std::string& path) {
  // The pre-log format: one "key\tbranch\tbase32-uid" line per head.
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    HeadUpdate head;
    std::string uid_text;
    if (!std::getline(ss, head.key, '\t') ||
        !std::getline(ss, head.branch, '\t') || !std::getline(ss, uid_text)) {
      return Status::Corruption("malformed branch-table line: " + line);
    }
    if (!Hash256::FromBase32(uid_text, &head.uid)) {
      return Status::Corruption("malformed uid in branch table: " + uid_text);
    }
    ApplyLocked(head);
  }
  return Status::OK();
}

std::string BranchTable::SnapshotLocked() const {
  std::string bytes;
  for (const auto& [key, branches] : heads_) {
    for (const auto& [branch, uid] : branches) {
      EncodeRecord(key, branch, uid, &bytes);
    }
  }
  return bytes;
}

Status BranchTable::CompactLocked() {
  FB_RETURN_IF_ERROR(log_.Replace(SnapshotLocked()));
  log_records_ = live_;
  return Status::OK();
}

std::vector<std::string> BranchTable::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(heads_.size());
  for (const auto& entry : heads_) out.push_back(entry.first);
  return out;
}

std::pair<uint64_t, uint64_t> BranchTable::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {heads_.size(), live_};
}

std::vector<std::string> BranchTable::Branches(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return out;
  for (const auto& entry : kit->second) out.push_back(entry.first);
  return out;
}

std::vector<std::pair<std::string, Hash256>> BranchTable::Heads(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto kit = heads_.find(key);
  if (kit == heads_.end()) return {};
  return {kit->second.begin(), kit->second.end()};
}

}  // namespace forkbase
