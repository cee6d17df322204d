#include "storage/run_file.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>

#include "common/crc32.h"
#include "common/little_endian.h"

namespace impatience {
namespace storage {

namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + strerror(errno);
}

}  // namespace

// A dead gate swallows the bytes; a gate whose budget is crossed applies a
// prefix and then goes dead — that is the torn write the recovery scan
// must detect. The budget is consumed with a CAS loop so concurrent
// writers (flusher threads plus the manifest writer) debit it exactly:
// at most one write crosses the boundary and is applied partially.
bool FaultedWrite(int fd, const uint8_t* data, size_t n, WriteFault* fault) {
  if (fault != nullptr) {
    if (fault->dead.load(std::memory_order_relaxed)) return true;
    int64_t budget = fault->budget.load(std::memory_order_relaxed);
    while (budget >= 0) {
      const size_t allowed = std::min<size_t>(n, static_cast<size_t>(budget));
      if (fault->budget.compare_exchange_weak(
              budget, budget - static_cast<int64_t>(allowed),
              std::memory_order_relaxed, std::memory_order_relaxed)) {
        if (allowed < n) fault->dead.store(true, std::memory_order_relaxed);
        n = allowed;
        break;
      }
      if (fault->dead.load(std::memory_order_relaxed)) return true;
    }
  }
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

namespace {

bool ReadExact(int fd, uint64_t offset, uint8_t* out, size_t n) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // Short file.
    out += r;
    offset += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return true;
}

uint64_t FileSizeOf(int fd) {
  struct stat st;
  if (fstat(fd, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

std::unique_ptr<RunFileWriter> RunFileWriter::Create(const std::string& path,
                                                     uint32_t record_size,
                                                     uint64_t run_id,
                                                     WriteFault* fault,
                                                     std::string* error) {
  // O_RDWR (not O_WRONLY): spill cursors pread blocks back from the same
  // descriptor while the run is still being appended to.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    SetError(error, "open " + path);
    return nullptr;
  }
  uint8_t header[kRunFileHeaderBytes] = {0};
  StoreLe<uint32_t>(header, kRunFileMagic);
  StoreLe<uint32_t>(header + 4, kRunFormatVersion);
  StoreLe<uint32_t>(header + 8, record_size);
  StoreLe<uint64_t>(header + 16, run_id);
  StoreLe<uint32_t>(header + 24, Crc32(header, 24));
  if (!FaultedWrite(fd, header, sizeof(header), fault)) {
    SetError(error, "write header " + path);
    ::close(fd);
    return nullptr;
  }
  std::unique_ptr<RunFileWriter> writer(
      new RunFileWriter(fd, record_size, fault));
  writer->bytes_written_ = kRunFileHeaderBytes;
  return writer;
}

RunFileWriter::~RunFileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

bool RunFileWriter::AppendBlock(const uint8_t* payload, uint32_t record_count,
                                std::string* error) {
  const size_t payload_len =
      static_cast<size_t>(record_count) * record_size_;
  frame_.resize(kRunBlockHeaderBytes + payload_len);
  StoreLe<uint32_t>(frame_.data(), kRunBlockMagic);
  StoreLe<uint32_t>(frame_.data() + 4, record_count);
  StoreLe<uint32_t>(frame_.data() + 8, Crc32(payload, payload_len));
  StoreLe<uint32_t>(frame_.data() + 12, 0);  // reserved
  memcpy(frame_.data() + kRunBlockHeaderBytes, payload, payload_len);
  // One write per block: a kill mid-write tears at most this block, never
  // an earlier one.
  if (!FaultedWrite(fd_, frame_.data(), frame_.size(), fault_)) {
    SetError(error, "write block");
    return false;
  }
  bytes_written_ += frame_.size();
  return true;
}

bool RunFileWriter::Sync(std::string* error) {
  if (fault_ != nullptr && fault_->is_dead()) return true;
  if (::fsync(fd_) != 0) {
    SetError(error, "fsync run file");
    return false;
  }
  return true;
}

BlockReadStatus ReadBlockAt(int fd, uint64_t offset, uint32_t record_size,
                            std::vector<uint8_t>* payload,
                            uint32_t* record_count, uint64_t* next_offset) {
  const uint64_t file_size = FileSizeOf(fd);
  if (offset >= file_size) return BlockReadStatus::kEof;
  if (file_size - offset < kRunBlockHeaderBytes) return BlockReadStatus::kTorn;
  uint8_t header[kRunBlockHeaderBytes];
  if (!ReadExact(fd, offset, header, sizeof(header))) {
    return BlockReadStatus::kTorn;
  }
  if (LoadLe<uint32_t>(header) != kRunBlockMagic) return BlockReadStatus::kTorn;
  const uint32_t count = LoadLe<uint32_t>(header + 4);
  const uint32_t expect_crc = LoadLe<uint32_t>(header + 8);
  if (count == 0) return BlockReadStatus::kTorn;
  const uint64_t payload_len = static_cast<uint64_t>(count) * record_size;
  if (payload_len > kMaxBlockPayloadBytes) return BlockReadStatus::kTorn;
  if (file_size - offset - kRunBlockHeaderBytes < payload_len) {
    return BlockReadStatus::kTorn;
  }
  payload->resize(payload_len);
  if (!ReadExact(fd, offset + kRunBlockHeaderBytes, payload->data(),
                 payload_len)) {
    return BlockReadStatus::kTorn;
  }
  if (Crc32(payload->data(), payload_len) != expect_crc) {
    return BlockReadStatus::kTorn;
  }
  *record_count = count;
  if (next_offset != nullptr) {
    *next_offset = offset + kRunBlockHeaderBytes + payload_len;
  }
  return BlockReadStatus::kOk;
}

std::unique_ptr<RunFileReader> RunFileReader::Open(const std::string& path,
                                                   std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "open " + path);
    return nullptr;
  }
  uint8_t header[kRunFileHeaderBytes];
  if (!ReadExact(fd, 0, header, sizeof(header)) ||
      LoadLe<uint32_t>(header) != kRunFileMagic ||
      LoadLe<uint32_t>(header + 4) != kRunFormatVersion ||
      LoadLe<uint32_t>(header + 24) != Crc32(header, 24)) {
    if (error != nullptr) *error = "bad run file header: " + path;
    ::close(fd);
    return nullptr;
  }
  const uint32_t record_size = LoadLe<uint32_t>(header + 8);
  if (record_size == 0) {
    if (error != nullptr) *error = "zero record size: " + path;
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<RunFileReader>(
      new RunFileReader(fd, record_size, LoadLe<uint64_t>(header + 16)));
}

RunFileReader::~RunFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

BlockReadStatus RunFileReader::NextBlock(std::vector<uint8_t>* payload,
                                         uint32_t* record_count) {
  uint64_t next = 0;
  const BlockReadStatus status =
      ReadBlockAt(fd_, offset_, record_size_, payload, record_count, &next);
  if (status == BlockReadStatus::kOk) offset_ = next;
  return status;
}

bool ScanRunFile(const std::string& path, bool truncate,
                 uint64_t* intact_records, uint64_t* intact_bytes,
                 uint32_t* record_size, uint64_t* run_id,
                 std::string* error) {
  *intact_records = 0;
  *intact_bytes = 0;
  std::unique_ptr<RunFileReader> reader = RunFileReader::Open(path, error);
  if (reader == nullptr) return false;
  if (record_size != nullptr) *record_size = reader->record_size();
  if (run_id != nullptr) *run_id = reader->run_id();
  std::vector<uint8_t> payload;
  uint32_t count = 0;
  while (reader->NextBlock(&payload, &count) == BlockReadStatus::kOk) {
    *intact_records += count;
  }
  *intact_bytes = reader->offset();
  reader.reset();  // Close the read fd before truncating.
  if (truncate) {
    if (::truncate(path.c_str(), static_cast<off_t>(*intact_bytes)) != 0) {
      SetError(error, "truncate " + path);
      return false;
    }
  }
  return true;
}

}  // namespace storage
}  // namespace impatience
