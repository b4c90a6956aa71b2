#include "util/file_io.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace forkbase {

bool FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

StatusOr<DirLock> DirLock::Acquire(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("create " + dir + ": " + ec.message());
  const std::string path = dir + "/LOCK";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::Unavailable(dir + " is locked by another open store (" +
                                 path + ")");
    }
    return Status::IOError("lock " + path + ": " + std::strerror(err));
  }
  return DirLock(fd);
}

DirLock::~DirLock() {
  if (fd_ >= 0) ::close(fd_);
}

Status AtomicReplaceFile(const std::string& path, Slice bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::IOError("open " + tmp + ": " + std::strerror(errno));
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
            std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    std::remove(tmp.c_str());
    return Status::IOError("replace " + path + ": " + err);
  }
  // The rename is durable only once the directory entry is.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  if (!FsyncPath(dir.empty() ? "." : dir)) {
    return Status::IOError("fsync directory of " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Status AppendFile::Open(const std::string& path) {
  path_ = path;
  file_.reset(std::fopen(path.c_str(), "ab"));
  if (!file_) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  size_ = ec ? 0 : size;
  return Status::OK();
}

Status AppendFile::Append(Slice run, bool sync) {
  if (!file_) {
    return Status::IOError("append to " + path_ +
                           " unavailable after prior failure");
  }
  std::FILE* f = file_.get();
  const bool written =
      run.empty() || std::fwrite(run.data(), 1, run.size(), f) == run.size();
  if (written && std::fflush(f) == 0 && (!sync || ::fsync(fileno(f)) == 0)) {
    size_ += run.size();
    return Status::OK();
  }
  Status err =
      Status::IOError("append failed: " + std::string(std::strerror(errno)));
  // A partial run may have reached the file; later runs behind it would be
  // dropped by the next replay. Cut back to the last good run and reopen.
  Close();
  std::error_code ec;
  std::filesystem::resize_file(path_, size_, ec);
  if (!ec) (void)Open(path_);
  return err;
}

Status AppendFile::Replace(Slice bytes) {
  // Reopen even on failure: a failed directory fsync comes after the
  // rename, when the old handle names an unlinked file, and a failed rename
  // leaves the old file at the path.
  Status replaced = AtomicReplaceFile(path_, bytes);
  Status reopened = Open(path_);
  return replaced.ok() ? reopened : replaced;
}

StatusOr<uint64_t> ReplayJournal(const std::string& path,
                                 const std::function<size_t(Slice)>& parse,
                                 AppendFile* out) {
  std::error_code ec;
  uint64_t records = 0;
  if (std::filesystem::exists(path, ec)) {
    FB_ASSIGN_OR_RETURN(const std::string log, ReadWholeFile(path));
    size_t valid = 0;
    while (const size_t n = parse(Slice(log).substr(valid))) {
      valid += n;
      ++records;
    }
    if (valid < log.size()) {
      // Drop the torn tail so later appends start at a record boundary.
      std::filesystem::resize_file(path, valid, ec);
      if (ec) return Status::IOError("truncate " + path + ": " + ec.message());
    }
  }
  FB_RETURN_IF_ERROR(out->Open(path));
  return records;
}

}  // namespace forkbase
