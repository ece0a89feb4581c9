#include "persist/wal.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/crash_point.h"
#include "common/errno_string.h"
#include "persist/crc32c.h"

namespace cuckoograph::persist {
namespace {

constexpr size_t kFrameHeaderBytes = 8;    // u32 len + u32 crc
constexpr size_t kPayloadHeaderBytes = 13; // u64 lsn + u8 op + u32 count
// Sanity cap on one record's payload (~33M edges). Anything larger is a
// corrupt length field, not a real batch.
constexpr uint32_t kMaxPayloadBytes = 1u << 28;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v);
  b[1] = static_cast<char>(v >> 8);
  b[2] = static_cast<char>(v >> 16);
  b[3] = static_cast<char>(v >> 24);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

void SetDetail(std::string* detail, const char* what) {
  if (detail != nullptr) *detail = what;
}

}  // namespace

std::string EncodeWalRecord(uint64_t lsn, WalOp op, Span<const Edge> edges) {
  const uint64_t payload_len =
      kPayloadHeaderBytes + static_cast<uint64_t>(edges.size()) * 8;
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload_len);
  PutU32(&frame, static_cast<uint32_t>(payload_len));
  PutU32(&frame, 0);  // crc patched below, once the payload exists
  PutU64(&frame, lsn);
  frame.push_back(static_cast<char>(op));
  PutU32(&frame, static_cast<uint32_t>(edges.size()));
  for (const Edge& e : edges) {
    PutU32(&frame, e.u);
    PutU32(&frame, e.v);
  }
  const uint32_t crc = Crc32c(frame.data() + kFrameHeaderBytes,
                              frame.size() - kFrameHeaderBytes);
  frame[4] = static_cast<char>(crc);
  frame[5] = static_cast<char>(crc >> 8);
  frame[6] = static_cast<char>(crc >> 16);
  frame[7] = static_cast<char>(crc >> 24);
  return frame;
}

WalDecodeStatus DecodeWalRecord(std::string_view bytes, WalRecord* record,
                                size_t* consumed, std::string* detail) {
  *consumed = 0;
  if (bytes.size() < kFrameHeaderBytes) {
    SetDetail(detail, "frame header cut short");
    return WalDecodeStatus::kNeedMore;
  }
  const uint32_t payload_len = GetU32(bytes.data());
  const uint32_t expected_crc = GetU32(bytes.data() + 4);
  if (payload_len < kPayloadHeaderBytes) {
    SetDetail(detail, "payload length below record minimum");
    return WalDecodeStatus::kCorrupt;
  }
  if (payload_len > kMaxPayloadBytes) {
    SetDetail(detail, "payload length above sanity cap");
    return WalDecodeStatus::kCorrupt;
  }
  if (bytes.size() - kFrameHeaderBytes < payload_len) {
    SetDetail(detail, "payload cut short");
    return WalDecodeStatus::kNeedMore;
  }
  const char* payload = bytes.data() + kFrameHeaderBytes;
  if (Crc32c(payload, payload_len) != expected_crc) {
    SetDetail(detail, "payload crc mismatch");
    return WalDecodeStatus::kCorrupt;
  }
  const uint64_t lsn = GetU64(payload);
  const uint8_t op = static_cast<uint8_t>(payload[8]);
  if (op != static_cast<uint8_t>(WalOp::kInsertEdges) &&
      op != static_cast<uint8_t>(WalOp::kDeleteEdges)) {
    SetDetail(detail, "unknown op byte");
    return WalDecodeStatus::kCorrupt;
  }
  const uint32_t count = GetU32(payload + 9);
  if (payload_len !=
      kPayloadHeaderBytes + static_cast<uint64_t>(count) * 8) {
    SetDetail(detail, "edge count disagrees with payload length");
    return WalDecodeStatus::kCorrupt;
  }
  record->lsn = lsn;
  record->op = static_cast<WalOp>(op);
  record->edges.clear();
  record->edges.reserve(count);
  const char* cursor = payload + kPayloadHeaderBytes;
  for (uint32_t i = 0; i < count; ++i, cursor += 8) {
    record->edges.push_back(Edge{GetU32(cursor), GetU32(cursor + 4)});
  }
  *consumed = kFrameHeaderBytes + payload_len;
  return WalDecodeStatus::kOk;
}

bool ReadWalFile(const std::string& path, WalReadResult* out,
                 std::string* error) {
  out->records.clear();
  out->valid_bytes = 0;
  out->clean = true;
  out->detail.clear();
  if (!FileExists(path)) return true;  // never written: an empty log
  std::string bytes;
  if (!ReadFileBytes(path, &bytes, error)) return false;
  std::string_view view = bytes;
  uint64_t prev_lsn = 0;
  while (!view.empty()) {
    WalRecord record;
    size_t consumed = 0;
    std::string why;
    const WalDecodeStatus status =
        DecodeWalRecord(view, &record, &consumed, &why);
    if (status != WalDecodeStatus::kOk) {
      out->clean = false;
      out->detail = (status == WalDecodeStatus::kNeedMore ? "torn tail: "
                                                          : "corrupt tail: ") +
                    why;
      break;
    }
    if (record.lsn <= prev_lsn) {
      // A frame that checksums but regresses the LSN is stale garbage
      // (e.g. recycled bytes after an incomplete truncation) — stop
      // trusting the file here.
      out->clean = false;
      out->detail = "corrupt tail: lsn not increasing";
      break;
    }
    prev_lsn = record.lsn;
    out->records.push_back(std::move(record));
    out->valid_bytes += consumed;
    view.remove_prefix(consumed);
  }
  return true;
}

WalWriter::~WalWriter() { Close(); }

bool WalWriter::Open(const std::string& path, WalSyncMode mode,
                     uint64_t next_lsn, const WritableFileFactory& factory,
                     std::string* error) {
  std::unique_ptr<WritableFile> file =
      factory ? factory(path, /*truncate=*/false, error)
              : OpenWritableFile(path, /*truncate=*/false, error);
  if (file == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    file_ = std::move(file);
    mode_ = mode;
    next_lsn_ = next_lsn;
    appended_lsn_ = next_lsn - 1;
    synced_lsn_ = next_lsn - 1;
    stop_ = false;
    failed_ = false;
    error_.clear();
  }
  if (mode == WalSyncMode::kGroup) {
    committer_ = std::thread([this] { CommitLoop(); });
  }
  return true;
}

void WalWriter::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr && !committer_.joinable()) return;
    stop_ = true;
  }
  appended_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    // Final covering sync so a clean Close() is as durable as kAlways
    // (a kNone writer closing cleanly still flushes — only a crash
    // loses its tail).
    if (!failed_ && synced_lsn_ < appended_lsn_) {
      if (file_->Sync()) {
        ++stats_.syncs;
        synced_lsn_ = appended_lsn_;
      }
    }
    file_->Close();
    file_.reset();
  }
  synced_cv_.notify_all();
}

uint64_t WalWriter::Append(WalOp op, Span<const Edge> edges) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failed_ || stop_ || file_ == nullptr) return 0;
  const uint64_t lsn = next_lsn_;
  const std::string frame = EncodeWalRecord(lsn, op, edges);
  if (!WriteFully(file_.get(), frame.data(), frame.size())) {
    FailLocked("wal append");
    return 0;
  }
  ++next_lsn_;
  appended_lsn_ = lsn;
  ++stats_.records_appended;
  stats_.bytes_appended += frame.size();
  CrashPoint("wal:post_append_pre_sync");
  switch (mode_) {
    case WalSyncMode::kNone:
      return lsn;
    case WalSyncMode::kAlways:
      if (!file_->Sync()) {
        FailLocked("wal fdatasync");
        return 0;
      }
      ++stats_.syncs;
      synced_lsn_ = lsn;
      return lsn;
    case WalSyncMode::kGroup:
      appended_cv_.notify_one();
      synced_cv_.wait(lock, [&] { return synced_lsn_ >= lsn || failed_; });
      return synced_lsn_ >= lsn ? lsn : 0;
  }
  return 0;  // unreachable
}

bool WalWriter::SyncNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || file_ == nullptr) return false;
  if (synced_lsn_ >= appended_lsn_) return true;
  if (!file_->Sync()) {
    FailLocked("wal fdatasync");
    return false;
  }
  ++stats_.syncs;
  synced_lsn_ = appended_lsn_;
  return true;
}

bool WalWriter::TruncateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || file_ == nullptr) return false;
  if (!file_->Truncate(0)) {
    FailLocked("wal truncate");
    return false;
  }
  // An empty file has nothing left to sync.
  synced_lsn_ = appended_lsn_;
  ++stats_.truncations;
  synced_cv_.notify_all();
  return true;
}

uint64_t WalWriter::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

bool WalWriter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string WalWriter::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

WalStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WalWriter::CommitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    appended_cv_.wait(lock, [&] {
      return stop_ || failed_ || appended_lsn_ > synced_lsn_;
    });
    if (failed_) {
      synced_cv_.notify_all();
      if (stop_) return;
      appended_cv_.wait(lock, [&] { return stop_; });
      return;
    }
    if (appended_lsn_ <= synced_lsn_) {
      if (stop_) return;
      continue;
    }
    const uint64_t target = appended_lsn_;
    const uint64_t covered = target - synced_lsn_;
    // Sync outside the lock: appends landing during the fdatasync queue
    // up and ride the next group. Close() joins this thread before it
    // releases file_, so the raw pointer stays valid.
    WritableFile* file = file_.get();
    lock.unlock();
    CrashPoint("wal:mid_group_commit");
    const bool ok = file->Sync();
    lock.lock();
    if (!ok) {
      FailLocked("wal group fdatasync");
      synced_cv_.notify_all();
      continue;
    }
    ++stats_.syncs;
    if (covered > 1) ++stats_.group_commits;
    if (target > synced_lsn_) synced_lsn_ = target;
    synced_cv_.notify_all();
  }
}

void WalWriter::FailLocked(const char* what) {
  failed_ = true;
  error_ = std::string(what) + ": " + ErrnoString(errno);
  synced_cv_.notify_all();
  appended_cv_.notify_all();
}

}  // namespace cuckoograph::persist
