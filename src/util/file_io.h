// Durable-file primitives shared by every on-disk structure: the chunk
// segments, the write-back dirty manifest and the branch-head log.
#ifndef FORKBASE_UTIL_FILE_IO_H_
#define FORKBASE_UTIL_FILE_IO_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "util/slice.h"
#include "util/status.h"

namespace forkbase {

/// fsyncs a file or directory by path (any fd reaches the inode's dirty
/// pages, so callers need not hold the writer's handle). False on error.
bool FsyncPath(const std::string& path);

/// Replaces `path` with `bytes` atomically and durably: writes `path`.tmp,
/// fsyncs it, renames it over `path` and fsyncs the directory. A crash at
/// any point leaves either the old file or the complete new one.
Status AtomicReplaceFile(const std::string& path, Slice bytes);

StatusOr<std::string> ReadWholeFile(const std::string& path);

/// An append-only file written in runs: the one append run of every store.
/// Append writes a run with one fwrite, flushes it to the OS and fsyncs it
/// when asked. A failed run is cut back to the end of the last good one and
/// the file reopened, so a torn run never sits under later appends; if that
/// fails too the file stays closed and every later append fails fast.
class AppendFile {
 public:
  /// Opens `path` for appending, creating it; size() starts at its length.
  Status Open(const std::string& path);
  Status Append(Slice run, bool sync);
  /// AtomicReplaceFile of the whole file, then reopens the path whatever
  /// the outcome; appends continue after it.
  Status Replace(Slice bytes);
  void Close() { file_.reset(); }

  bool is_open() const { return file_ != nullptr; }
  uint64_t size() const { return size_; }

 private:
  std::string path_;
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_{nullptr, &std::fclose};
  uint64_t size_ = 0;
};

/// Replays the journal at `path` (a missing file is empty) and opens it into
/// `out`. `parse` consumes the record at the front of its argument and
/// returns the record's length, or 0 at a short or corrupt record: replay
/// stops there and cuts that torn tail off the file. Returns the number of
/// records replayed.
StatusOr<uint64_t> ReplayJournal(const std::string& path,
                                 const std::function<size_t(Slice)>& parse,
                                 AppendFile* out);

/// An exclusive flock on DIR/LOCK, held until destruction. flock locks
/// belong to the open file, so a second Acquire on one directory fails in
/// this process as in any other.
class DirLock {
 public:
  /// Creates `dir` if needed and takes the lock without blocking. When
  /// another holder has it, fails with kUnavailable naming the directory
  /// and touches no other file.
  static StatusOr<DirLock> Acquire(const std::string& dir);

  DirLock(DirLock&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ~DirLock();

 private:
  explicit DirLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace forkbase

#endif  // FORKBASE_UTIL_FILE_IO_H_
