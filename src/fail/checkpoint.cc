#include "fail/checkpoint.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "fail/fault_injection.h"
#include "obs/journal.h"

namespace srp {
namespace {

constexpr char kMagic[8] = {'S', 'R', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kFormatVersion = 1;

// Sanity caps applied before any META-derived allocation, so a fuzzed
// header cannot request a pathological buffer; every real section is then
// length-checked against the exact size these counts imply.
constexpr uint64_t kMaxDim = 1u << 20;
constexpr uint64_t kMaxAttributes = 1u << 16;

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint64_t FnvMix(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t FnvMixU64(uint64_t hash, uint64_t value) {
  return FnvMix(hash, &value, sizeof(value));
}

uint64_t FnvMixDouble(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMixU64(hash, bits);
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

// ---- serialization helpers (little-endian fixed-width; the repo's
// x86_64 baseline is little-endian, so these are raw memcpys) ----

void AppendBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void AppendU32(std::string* out, uint32_t v) { AppendBytes(out, &v, 4); }
void AppendU64(std::string* out, uint64_t v) { AppendBytes(out, &v, 8); }

void AppendDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Frames one section: 4-char tag, u64 payload length, payload, CRC32.
void AppendSection(std::string* out, const char tag[4],
                   const std::string& payload) {
  AppendBytes(out, tag, 4);
  AppendU64(out, payload.size());
  out->append(payload);
  AppendU32(out, Crc32(payload.data(), payload.size()));
}

/// Bounds-checked cursor over a loaded file; every primitive read fails
/// softly instead of running off the buffer.
struct Cursor {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Read(void* out, size_t n) {
    if (n > size - pos) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool ReadU32(uint32_t* v) { return Read(v, 4); }
  bool ReadU64(uint64_t* v) { return Read(v, 8); }
  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
};

/// Reads one framed section, verifying tag order, framing, and CRC.
/// On success `payload`/`payload_size` point into the cursor's buffer.
Status ReadSection(Cursor* cursor, const char expected_tag[4],
                   const char** payload, size_t* payload_size) {
  const std::string tag_name(expected_tag, 4);
  char tag[4];
  if (!cursor->Read(tag, 4)) {
    return Status::InvalidArgument("checkpoint truncated before section " +
                                   tag_name);
  }
  if (std::memcmp(tag, expected_tag, 4) != 0) {
    return Status::InvalidArgument(
        "checkpoint section out of order: expected " + tag_name + ", found " +
        std::string(tag, 4));
  }
  uint64_t length = 0;
  if (!cursor->ReadU64(&length) || length > cursor->size - cursor->pos) {
    return Status::InvalidArgument("checkpoint section " + tag_name +
                                   " overruns the file");
  }
  *payload = cursor->data + cursor->pos;
  *payload_size = static_cast<size_t>(length);
  cursor->pos += *payload_size;
  uint32_t stored_crc = 0;
  if (!cursor->ReadU32(&stored_crc)) {
    return Status::InvalidArgument("checkpoint section " + tag_name +
                                   " missing its CRC");
  }
  const uint32_t actual = Crc32(*payload, *payload_size);
  if (actual != stored_crc) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "checkpoint section %s CRC mismatch (stored %08x, computed "
                  "%08x): torn or corrupt file",
                  tag_name.c_str(), stored_crc, actual);
    return Status::InvalidArgument(msg);
  }
  return Status::OK();
}

std::string Serialize(const StoredCheckpoint& stored) {
  const RepartitionCheckpoint& state = stored.state;
  const Partition& part = state.partition;
  const uint64_t num_groups = part.num_groups();
  const uint64_t num_attributes =
      num_groups == 0 ? 0 : part.features[0].size();

  std::string out;
  AppendBytes(&out, kMagic, sizeof(kMagic));

  std::string meta;
  AppendU32(&meta, kFormatVersion);
  AppendU64(&meta, state.generation);
  AppendU64(&meta, stored.grid_fingerprint);
  AppendU64(&meta, stored.options_fingerprint);
  AppendU64(&meta, state.iterations);
  AppendDouble(&meta, state.previous_variation);
  AppendDouble(&meta, state.information_loss);
  AppendDouble(&meta, state.final_min_adjacent_variation);
  AppendU64(&meta, part.rows);
  AppendU64(&meta, part.cols);
  AppendU64(&meta, num_groups);
  AppendU64(&meta, num_attributes);
  AppendSection(&out, "META", meta);

  std::string grps;
  grps.reserve(num_groups * 16);
  for (const CellGroup& g : part.groups) {
    AppendU32(&grps, g.r_beg);
    AppendU32(&grps, g.r_end);
    AppendU32(&grps, g.c_beg);
    AppendU32(&grps, g.c_end);
  }
  AppendSection(&out, "GRPS", grps);

  std::string cmap;
  AppendBytes(&cmap, part.cell_to_group.data(),
              part.cell_to_group.size() * sizeof(int32_t));
  AppendSection(&out, "CMAP", cmap);

  std::string feat;
  feat.reserve(num_groups * num_attributes * 8);
  for (const std::vector<double>& row : part.features) {
    for (double v : row) AppendDouble(&feat, v);
  }
  AppendSection(&out, "FEAT", feat);

  std::string gmet;
  AppendBytes(&gmet, part.group_null.data(), part.group_null.size());
  AppendBytes(&gmet, part.group_valid_count.data(),
              part.group_valid_count.size() * sizeof(uint32_t));
  AppendSection(&out, "GMET", gmet);

  AppendSection(&out, "END ", std::string());
  return out;
}

Result<StoredCheckpoint> Deserialize(const std::string& bytes,
                                     const std::string& path) {
  Cursor cursor{bytes.data(), bytes.size()};
  char magic[sizeof(kMagic)];
  if (!cursor.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint file (bad magic): " +
                                   path);
  }

  const char* payload = nullptr;
  size_t payload_size = 0;
  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "META", &payload, &payload_size));
  Cursor meta{payload, payload_size};
  uint32_t version = 0;
  StoredCheckpoint stored;
  RepartitionCheckpoint& state = stored.state;
  Partition& part = state.partition;
  uint64_t iterations = 0, rows = 0, cols = 0, num_groups = 0,
           num_attributes = 0;
  if (!meta.ReadU32(&version) || !meta.ReadU64(&state.generation) ||
      !meta.ReadU64(&stored.grid_fingerprint) ||
      !meta.ReadU64(&stored.options_fingerprint) ||
      !meta.ReadU64(&iterations) || !meta.ReadDouble(&state.previous_variation) ||
      !meta.ReadDouble(&state.information_loss) ||
      !meta.ReadDouble(&state.final_min_adjacent_variation) ||
      !meta.ReadU64(&rows) || !meta.ReadU64(&cols) ||
      !meta.ReadU64(&num_groups) || !meta.ReadU64(&num_attributes) ||
      meta.pos != meta.size) {
    return Status::InvalidArgument("checkpoint META section malformed");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint format version " +
                                   std::to_string(version));
  }
  if (rows > kMaxDim || cols > kMaxDim || num_groups > rows * cols ||
      num_attributes > kMaxAttributes) {
    return Status::InvalidArgument(
        "checkpoint META counts are structurally impossible");
  }
  state.iterations = static_cast<size_t>(iterations);
  part.rows = static_cast<size_t>(rows);
  part.cols = static_cast<size_t>(cols);

  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "GRPS", &payload, &payload_size));
  if (payload_size != num_groups * 16) {
    return Status::InvalidArgument(
        "checkpoint GRPS size disagrees with META group count");
  }
  part.groups.resize(num_groups);
  {
    Cursor grps{payload, payload_size};
    for (CellGroup& g : part.groups) {
      grps.ReadU32(&g.r_beg);
      grps.ReadU32(&g.r_end);
      grps.ReadU32(&g.c_beg);
      grps.ReadU32(&g.c_end);
    }
  }

  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "CMAP", &payload, &payload_size));
  if (payload_size != rows * cols * sizeof(int32_t)) {
    return Status::InvalidArgument(
        "checkpoint CMAP size disagrees with META dimensions");
  }
  part.cell_to_group.resize(rows * cols);
  // memcpy's pointers must be non-null even for zero bytes, and an empty
  // vector's data() may be null: skip empty sections.
  if (payload_size > 0) {
    std::memcpy(part.cell_to_group.data(), payload, payload_size);
  }

  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "FEAT", &payload, &payload_size));
  if (payload_size != num_groups * num_attributes * sizeof(double)) {
    return Status::InvalidArgument(
        "checkpoint FEAT size disagrees with META counts");
  }
  part.features.resize(num_groups);
  {
    Cursor feat{payload, payload_size};
    for (std::vector<double>& row : part.features) {
      row.resize(num_attributes);
      for (double& v : row) feat.ReadDouble(&v);
    }
  }

  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "GMET", &payload, &payload_size));
  if (payload_size != num_groups * (1 + sizeof(uint32_t))) {
    return Status::InvalidArgument(
        "checkpoint GMET size disagrees with META group count");
  }
  part.group_null.resize(num_groups);
  part.group_valid_count.resize(num_groups);
  if (num_groups > 0) {
    std::memcpy(part.group_null.data(), payload, num_groups);
    std::memcpy(part.group_valid_count.data(), payload + num_groups,
                num_groups * sizeof(uint32_t));
  }

  SRP_RETURN_IF_ERROR(ReadSection(&cursor, "END ", &payload, &payload_size));
  if (payload_size != 0 || cursor.pos != cursor.size) {
    return Status::InvalidArgument(
        "checkpoint carries trailing bytes after END");
  }
  return stored;
}

/// Real-sleep RetryClock (nanosleep, restart on EINTR).
class SystemRetryClock : public RetryClock {
 public:
  void SleepMillis(uint64_t millis) override {
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(millis / 1000);
    ts.tv_nsec = static_cast<long>((millis % 1000) * 1000000);
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
  }
};

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Flushes the directory entry of `path` so the rename itself is durable.
Status FsyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync directory", dir);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint64_t GridFingerprint(const GridDataset& grid) {
  uint64_t hash = kFnvOffset;
  hash = FnvMixU64(hash, grid.rows());
  hash = FnvMixU64(hash, grid.cols());
  const GeoExtent& extent = grid.extent();
  hash = FnvMixDouble(hash, extent.lat_min);
  hash = FnvMixDouble(hash, extent.lat_max);
  hash = FnvMixDouble(hash, extent.lon_min);
  hash = FnvMixDouble(hash, extent.lon_max);
  hash = FnvMixU64(hash, grid.num_attributes());
  for (const AttributeSpec& attr : grid.attributes()) {
    hash = FnvMixU64(hash, attr.name.size());
    hash = FnvMix(hash, attr.name.data(), attr.name.size());
    hash = FnvMixU64(hash, static_cast<uint64_t>(attr.agg_type));
    hash = FnvMixU64(hash, attr.is_integer ? 1 : 0);
    hash = FnvMixU64(hash, attr.is_categorical ? 1 : 0);
  }
  for (size_t k = 0; k < grid.num_attributes(); ++k) {
    const std::vector<double>& values = grid.AttributeValues(k);
    hash = FnvMix(hash, values.data(), values.size() * sizeof(double));
  }
  const std::vector<uint8_t>& nulls = grid.null_mask();
  hash = FnvMix(hash, nulls.data(), nulls.size());
  return hash;
}

uint64_t OptionsFingerprint(const RepartitionOptions& options) {
  uint64_t hash = kFnvOffset;
  hash = FnvMixU64(hash, kFormatVersion);
  hash = FnvMixDouble(hash, options.ifl_threshold);
  hash = FnvMixDouble(hash, options.min_variation_step);
  return hash;
}

RetryClock* RealRetryClock() {
  static SystemRetryClock* clock = new SystemRetryClock();
  return clock;
}

Status WriteCheckpointFile(const std::string& path,
                           const StoredCheckpoint& stored) {
  const std::string bytes = Serialize(stored);
  const std::string tmp = path + ".tmp";

  // Crash-consistency sequence: all bytes into a temp file, fsync it, then
  // atomically rename over the final name and fsync the directory. A crash
  // (or SIGKILL) at any point leaves either the previous file intact or the
  // new one complete — never a half-written checkpoint under its real name.
  FaultInjector& injector = FaultInjector::Get();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  Status status = injector.Check("checkpoint.write");
  if (status.ok()) {
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        status = Errno("write", tmp);
        break;
      }
      written += static_cast<size_t>(n);
    }
  }
  if (status.ok()) status = injector.Check("checkpoint.fsync");
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", tmp);
  ::close(fd);
  if (status.ok()) status = injector.Check("checkpoint.rename");
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Errno("rename", tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  SRP_RETURN_IF_ERROR(FsyncParentDir(path));

  // Torn-write simulation: chop the renamed file in half AFTER reporting
  // success, modeling a disk that lied about durability. The reader's CRCs
  // must catch it and LoadLatestCheckpoint must fall back a generation.
  if (injector.Fire("checkpoint.truncate")) {
    if (::truncate(path.c_str(), static_cast<off_t>(bytes.size() / 2)) != 0) {
      return Errno("truncate", path);
    }
  }
  return Status::OK();
}

Result<StoredCheckpoint> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open checkpoint: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("cannot read checkpoint: " + path);
  }
  return Deserialize(bytes, path);
}

Status ValidateStoredCheckpoint(const StoredCheckpoint& stored,
                                const GridDataset& grid,
                                const RepartitionOptions& options) {
  if (stored.grid_fingerprint != GridFingerprint(grid)) {
    return Status::FailedPrecondition(
        "checkpoint was written for a different dataset (grid fingerprint "
        "mismatch)");
  }
  if (stored.options_fingerprint != OptionsFingerprint(options)) {
    return Status::FailedPrecondition(
        "checkpoint was written under different merge-relevant options "
        "(theta / min-variation-step fingerprint mismatch)");
  }
  return stored.state.ValidateFor(grid);
}

std::string CheckpointFileName(uint64_t generation) {
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%012llu.srpckpt",
                static_cast<unsigned long long>(generation));
  return name;
}

std::string CheckpointFilePath(const std::string& directory,
                               uint64_t generation) {
  return (std::filesystem::path(directory) / CheckpointFileName(generation))
      .string();
}

std::vector<std::pair<uint64_t, std::string>> ListCheckpointFiles(
    const std::string& directory) {
  std::vector<std::pair<uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != std::strlen("ckpt-000000000000.srpckpt") ||
        name.rfind("ckpt-", 0) != 0 ||
        name.find(".srpckpt") != name.size() - 8) {
      continue;
    }
    uint64_t generation = 0;
    bool digits = true;
    for (size_t i = 5; i < 17; ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      generation = generation * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (digits) files.emplace_back(generation, entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Result<StoredCheckpoint> LoadLatestCheckpoint(const std::string& directory) {
  const std::vector<std::pair<uint64_t, std::string>> files =
      ListCheckpointFiles(directory);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    Result<StoredCheckpoint> loaded = ReadCheckpointFile(it->second);
    if (loaded.ok()) return loaded;
    obs::Journal::Appendf(
        obs::JournalEventKind::kCheckpoint, 2,
        "generation %llu rejected, falling back: %s",
        static_cast<unsigned long long>(it->first),
        loaded.status().message().c_str());
  }
  return Status::NotFound("no valid checkpoint in " + directory);
}

CheckpointWriter::CheckpointWriter(Options options)
    : options_(std::move(options)) {
  if (options_.clock == nullptr) options_.clock = RealRetryClock();
  if (options_.keep_generations < 2) options_.keep_generations = 2;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
}

Status CheckpointWriter::Init() {
  if (options_.directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " +
                           options_.directory + ": " + ec.message());
  }
  // Resume the generation counter above anything already on disk so a
  // resumed run never renames over (or prunes ahead of) history it did not
  // write.
  const auto files = ListCheckpointFiles(options_.directory);
  next_generation_ = files.empty() ? 0 : files.back().first + 1;
  initialized_ = true;
  return Status::OK();
}

Status CheckpointWriter::OnCheckpoint(const RepartitionCheckpoint& state,
                                      SnapshotReason reason) {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "CheckpointWriter::Init was not called (or failed)");
  }
  StoredCheckpoint stored;
  stored.state = state;
  stored.state.generation = next_generation_;
  stored.grid_fingerprint = options_.grid_fingerprint;
  stored.options_fingerprint = options_.options_fingerprint;
  const std::string path =
      CheckpointFilePath(options_.directory, next_generation_);

  // Bounded retry with exponential backoff: transient I/O errors (including
  // the injected write/fsync/rename faults) get max_attempts tries before
  // the failure propagates to the caller.
  Status status;
  uint64_t backoff = options_.backoff_millis;
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      options_.clock->SleepMillis(backoff);
      backoff *= 2;
    }
    status = WriteCheckpointFile(path, stored);
    if (status.ok()) break;
    ++failed_attempts_;
  }
  if (!status.ok()) return status;

  latest_generation_ = static_cast<int64_t>(next_generation_);
  ++next_generation_;
  ++writes_;
  obs::Journal::SetCheckpointGeneration(latest_generation_);
  obs::Journal::Appendf(
      obs::JournalEventKind::kCheckpoint, 0,
      "generation %lld committed (%s, iteration %llu, %llu groups)",
      static_cast<long long>(latest_generation_),
      reason == SnapshotReason::kInterrupt ? "interrupt" : "periodic",
      static_cast<unsigned long long>(stored.state.iterations),
      static_cast<unsigned long long>(stored.state.partition.num_groups()));

  // Prune: keep the newest keep_generations files; removal failures are
  // deliberately ignored (pruning is hygiene, not correctness).
  const auto files = ListCheckpointFiles(options_.directory);
  if (files.size() > options_.keep_generations) {
    for (size_t i = 0; i + options_.keep_generations < files.size(); ++i) {
      std::error_code ec;
      std::filesystem::remove(files[i].second, ec);
    }
  }
  return Status::OK();
}

}  // namespace srp
