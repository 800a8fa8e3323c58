#include "snapshot/snapshot_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/serialization.h"
#include "common/strings.h"

namespace hmmm {
namespace {

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

int32_t ReadI32(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double ReadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Status SnapshotCorrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss("snapshot file " + path + ": " + what);
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

StatusOr<std::unique_ptr<SnapshotReader>> SnapshotReader::Open(
    const std::string& path, const SnapshotOptions& options) {
  const auto open_start = std::chrono::steady_clock::now();
  auto reader = std::unique_ptr<SnapshotReader>(new SnapshotReader());
  reader->path_ = path;

  // The open/fstat/mmap sequence composes several syscalls, so it reuses
  // the storage layer's transient-retry policy as one unit rather than
  // retrying each syscall separately.
  Status status = WithIoRetry([&]() -> Status {
    if (HMMM_FAULT_FIRED("snapshot.open")) {
      return Status::IOError("injected snapshot open fault");
    }
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        return Status::NotFound("snapshot file not found: " + path);
      }
      return Status::IOError(
          StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status s = Status::IOError(
          StrFormat("fstat %s: %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return s;
    }
    const auto size = static_cast<size_t>(st.st_size);
    if (size < kSnapshotHeaderBytes) {
      ::close(fd);
      return SnapshotCorrupt(
          path, StrFormat("truncated: %zu bytes, header needs %zu", size,
                          kSnapshotHeaderBytes));
    }
    if (HMMM_FAULT_FIRED("snapshot.map")) {
      ::close(fd);
      return Status::IOError("injected snapshot map fault");
    }
    // MAP_SHARED (read-only) rather than MAP_PRIVATE so msync_on_open is
    // well-defined; nothing ever writes through this mapping.
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (addr == MAP_FAILED) {
      return Status::IOError(
          StrFormat("mmap %s: %s", path.c_str(), std::strerror(errno)));
    }
    reader->map_.addr_ = addr;
    reader->map_.size_ = size;
    return Status::OK();
  });

  if (status.ok()) {
    if (options.advise_random || options.advise_willneed ||
        options.msync_on_open) {
      const auto advise_start = std::chrono::steady_clock::now();
      if (options.advise_random) {
        ::madvise(reader->map_.addr_, reader->map_.size_, MADV_RANDOM);
      }
      if (options.advise_willneed) {
        ::madvise(reader->map_.addr_, reader->map_.size_, MADV_WILLNEED);
      }
      if (options.msync_on_open) {
        ::msync(reader->map_.addr_, reader->map_.size_, MS_SYNC);
      }
      if (options.metrics != nullptr) {
        options.metrics
            ->GetHistogram("hmmm_snapshot_advise_ms", DefaultLatencyBucketsMs(),
                           "Time spent in madvise/msync at snapshot open")
            ->Observe(ElapsedMs(advise_start));
      }
    }
    status = reader->ParseHeaderAndTable();
  }
  if (status.ok() && options.verify_section_crcs) {
    status = reader->VerifyAllSections();
  }

  if (options.metrics != nullptr) {
    MetricsRegistry& m = *options.metrics;
    m.GetCounter("hmmm_snapshot_opens_total", "Snapshot open attempts")
        ->Increment();
    m.GetHistogram("hmmm_snapshot_open_ms", DefaultLatencyBucketsMs(),
                   "Snapshot open latency (map + header/table verification)")
        ->Observe(ElapsedMs(open_start));
    if (!status.ok()) {
      m.GetCounter("hmmm_snapshot_open_failures_total",
                   "Snapshot opens that returned an error")
          ->Increment();
    } else {
      m.GetGauge("hmmm_snapshot_generation",
                 "Generation of the most recently opened snapshot")
          ->Set(static_cast<double>(reader->generation_));
      m.GetGauge("hmmm_snapshot_mapped_bytes",
                 "Size of the most recently mapped snapshot file")
          ->Set(static_cast<double>(reader->map_.size()));
    }
  }
  if (!status.ok()) return status;
  return reader;
}

Status SnapshotReader::ParseHeaderAndTable() {
  const uint8_t* base = map_.data();
  const uint64_t file_size = map_.size();

  if (ReadU32(base + 0) != kSnapshotMagic) {
    return SnapshotCorrupt(path_, "bad magic");
  }
  const uint32_t version = ReadU32(base + 4);
  if (version != kSnapshotVersion) {
    return SnapshotCorrupt(
        path_, StrFormat("unsupported snapshot version %u (reader knows %u)",
                         version, kSnapshotVersion));
  }
  const uint32_t header_crc = ReadU32(base + 52);
  if (Crc32c(base, 52) != header_crc) {
    return SnapshotCorrupt(path_, "header checksum mismatch");
  }
  const uint64_t declared_size = ReadU64(base + 8);
  if (declared_size != file_size) {
    return SnapshotCorrupt(
        path_, StrFormat("truncated: header declares %llu bytes, file has %llu",
                         static_cast<unsigned long long>(declared_size),
                         static_cast<unsigned long long>(file_size)));
  }
  generation_ = ReadU64(base + 16);
  const uint64_t table_offset = ReadU64(base + 24);
  const uint32_t section_count = ReadU32(base + 32);
  const uint32_t table_crc = ReadU32(base + 36);
  frozen_model_version_ = ReadU64(base + 40);
  const uint32_t flags = ReadU32(base + 48);
  has_event_index_ = (flags & kSnapshotFlagHasEventIndex) != 0;

  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kSnapshotSectionEntryBytes;
  if (table_offset < kSnapshotHeaderBytes || table_offset > file_size ||
      table_bytes > file_size - table_offset) {
    return SnapshotCorrupt(path_, "section table out of bounds");
  }
  if (Crc32c(base + table_offset, table_bytes) != table_crc) {
    return SnapshotCorrupt(path_, "section table checksum mismatch");
  }

  sections_.resize(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* e = base + table_offset + i * kSnapshotSectionEntryBytes;
    SnapshotSection& s = sections_[i];
    s.id = ReadU32(e + 0);
    s.flags = ReadU32(e + 4);
    s.offset = ReadU64(e + 8);
    s.length = ReadU64(e + 16);
    s.crc32c = ReadU32(e + 24);
    if (s.offset > file_size || s.length > file_size - s.offset) {
      return SnapshotCorrupt(
          path_, StrFormat("section %u out of bounds", s.id));
    }
    if ((s.flags & kSnapshotSectionAligned) != 0 &&
        s.offset % kSnapshotAlignment != 0) {
      return SnapshotCorrupt(
          path_, StrFormat("section %u misaligned: offset %llu", s.id,
                           static_cast<unsigned long long>(s.offset)));
    }
  }
  return Status::OK();
}

const SnapshotSection* SnapshotReader::FindSection(uint32_t id) const {
  for (const SnapshotSection& s : sections_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

StatusOr<std::string_view> SnapshotReader::SectionBytes(uint32_t id) const {
  if (HMMM_FAULT_FIRED("snapshot.read")) {
    return Status::IOError("injected snapshot read fault");
  }
  const SnapshotSection* s = FindSection(id);
  if (s == nullptr) {
    return SnapshotCorrupt(path_, StrFormat("missing section %u", id));
  }
  return std::string_view(
      reinterpret_cast<const char*>(map_.data() + s->offset), s->length);
}

StatusOr<Matrix> SnapshotReader::BorrowMatrix(uint32_t id, size_t rows,
                                              size_t cols) const {
  const SnapshotSection* s = FindSection(id);
  if (s == nullptr) {
    return SnapshotCorrupt(path_, StrFormat("missing section %u", id));
  }
  if ((s->flags & kSnapshotSectionAligned) == 0) {
    return SnapshotCorrupt(
        path_, StrFormat("section %u is not an aligned matrix section", id));
  }
  if (s->length != rows * cols * sizeof(double)) {
    return SnapshotCorrupt(
        path_,
        StrFormat("section %u: %llu bytes, expected %zu x %zu doubles", id,
                  static_cast<unsigned long long>(s->length), rows, cols));
  }
  return Matrix::FromBorrowed(
      reinterpret_cast<const double*>(map_.data() + s->offset), rows, cols);
}

Status SnapshotReader::VerifyAllSections() const {
  for (const SnapshotSection& s : sections_) {
    if (HMMM_FAULT_FIRED("snapshot.read")) {
      return Status::IOError("injected snapshot read fault");
    }
    if (Crc32c(map_.data() + s.offset, s.length) != s.crc32c) {
      return SnapshotCorrupt(
          path_, StrFormat("section %u checksum mismatch", s.id));
    }
  }
  return Status::OK();
}

StatusOr<VideoCatalog> SnapshotReader::BuildCatalog() const {
  HMMM_ASSIGN_OR_RETURN(std::string_view meta,
                        SectionBytes(kSectionCatalogMeta));
  BinaryReader r(meta);
  HMMM_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadVarint());
  EventVocabulary vocabulary;
  for (uint64_t i = 0; i < vocab_size; ++i) {
    HMMM_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    vocabulary.Register(name);
  }
  HMMM_ASSIGN_OR_RETURN(int32_t num_features, r.ReadInt32());
  if (num_features < 0) {
    return SnapshotCorrupt(path_, "negative feature count");
  }
  HMMM_ASSIGN_OR_RETURN(uint64_t num_videos, r.ReadVarint());

  VideoCatalog catalog;
  catalog.vocabulary_ = std::move(vocabulary);
  catalog.num_features_ = num_features;
  catalog.videos_.resize(num_videos);
  for (uint64_t v = 0; v < num_videos; ++v) {
    HMMM_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    catalog.videos_[v].id = static_cast<VideoId>(v);
    catalog.videos_[v].name = std::move(name);
  }
  if (!r.AtEnd()) {
    return SnapshotCorrupt(path_, "trailing bytes in catalog meta");
  }

  HMMM_ASSIGN_OR_RETURN(std::string_view table,
                        SectionBytes(kSectionShotTable));
  HMMM_ASSIGN_OR_RETURN(std::string_view events_raw,
                        SectionBytes(kSectionShotEvents));
  if (table.size() % 32 != 0) {
    return SnapshotCorrupt(path_, "shot table size not a record multiple");
  }
  if (events_raw.size() % sizeof(int32_t) != 0) {
    return SnapshotCorrupt(path_, "shot-events size not an int32 multiple");
  }
  const size_t num_shots = table.size() / 32;
  const size_t num_annotations = events_raw.size() / sizeof(int32_t);
  const auto* events_base =
      reinterpret_cast<const uint8_t*>(events_raw.data());

  // One pass in ShotId order rebuilds both the shot records and every
  // video's temporal shot list (ShotIds ascend within a video).
  catalog.shots_.resize(num_shots);
  for (size_t sid = 0; sid < num_shots; ++sid) {
    const auto* rec = reinterpret_cast<const uint8_t*>(table.data()) + sid * 32;
    ShotRecord& shot = catalog.shots_[sid];
    shot.id = static_cast<ShotId>(sid);
    shot.begin_time = ReadF64(rec + 0);
    shot.end_time = ReadF64(rec + 8);
    shot.video_id = ReadI32(rec + 16);
    shot.index_in_video = ReadI32(rec + 20);
    const uint32_t event_offset = ReadU32(rec + 24);
    const uint32_t event_count = ReadU32(rec + 28);
    if (shot.video_id < 0 ||
        static_cast<uint64_t>(shot.video_id) >= num_videos) {
      return SnapshotCorrupt(
          path_, StrFormat("shot %zu references video %d of %llu", sid,
                           shot.video_id,
                           static_cast<unsigned long long>(num_videos)));
    }
    VideoRecord& video = catalog.videos_[static_cast<size_t>(shot.video_id)];
    if (shot.index_in_video != static_cast<int>(video.shots.size())) {
      return SnapshotCorrupt(
          path_, StrFormat("shot %zu out of order within video %d", sid,
                           shot.video_id));
    }
    if (event_offset > num_annotations ||
        event_count > num_annotations - event_offset) {
      return SnapshotCorrupt(
          path_, StrFormat("shot %zu event window out of bounds", sid));
    }
    shot.events.resize(event_count);
    for (uint32_t e = 0; e < event_count; ++e) {
      const int32_t event =
          ReadI32(events_base + (event_offset + e) * sizeof(int32_t));
      if (event < 0 || static_cast<uint64_t>(event) >= vocab_size) {
        return SnapshotCorrupt(
            path_, StrFormat("shot %zu annotated with unknown event %d", sid,
                             event));
      }
      shot.events[e] = event;
    }
    video.shots.push_back(shot.id);
  }

  HMMM_ASSIGN_OR_RETURN(
      catalog.features_,
      BorrowMatrix(kSectionRawFeatures, num_shots,
                   static_cast<size_t>(num_features)));
  return catalog;
}

StatusOr<HierarchicalModel> SnapshotReader::BuildModel() const {
  HMMM_ASSIGN_OR_RETURN(std::string_view meta, SectionBytes(kSectionModelMeta));
  BinaryReader r(meta);
  HMMM_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadVarint());
  HierarchicalModel model;
  for (uint64_t i = 0; i < vocab_size; ++i) {
    HMMM_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    model.vocabulary_.Register(name);
  }
  HMMM_ASSIGN_OR_RETURN(model.feature_minima_, r.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(model.feature_maxima_, r.ReadDoubleVector());
  HMMM_ASSIGN_OR_RETURN(model.pi2_, r.ReadDoubleVector());

  uint64_t shape[10];
  for (auto& dim : shape) {
    HMMM_ASSIGN_OR_RETURN(dim, r.ReadUint64());
  }
  HMMM_ASSIGN_OR_RETURN(model.b1_, BorrowMatrix(kSectionB1, shape[0], shape[1]));
  HMMM_ASSIGN_OR_RETURN(model.b2_, BorrowMatrix(kSectionB2, shape[4], shape[5]));
  HMMM_ASSIGN_OR_RETURN(model.p12_,
                        BorrowMatrix(kSectionP12, shape[6], shape[7]));
  HMMM_ASSIGN_OR_RETURN(model.b1_prime_,
                        BorrowMatrix(kSectionB1Prime, shape[8], shape[9]));

  if (shape[2] != shape[3]) {
    return SnapshotCorrupt(path_, "model sections disagree on shapes");
  }
  HMMM_ASSIGN_OR_RETURN(model.a2_, BuildA2(shape[2]));

  const SnapshotSection* a1_section = FindSection(kSectionA1Blob);
  if (a1_section == nullptr ||
      (a1_section->flags & kSnapshotSectionAligned) == 0) {
    return SnapshotCorrupt(path_, "missing or unaligned A1 blob section");
  }
  const auto* a1_base =
      reinterpret_cast<const double*>(map_.data() + a1_section->offset);

  HMMM_ASSIGN_OR_RETURN(uint64_t num_locals, r.ReadVarint());
  model.locals_.resize(num_locals);
  size_t total_states = 0;
  for (uint64_t v = 0; v < num_locals; ++v) {
    LocalShotModel& local = model.locals_[v];
    HMMM_ASSIGN_OR_RETURN(local.video_id, r.ReadInt32());
    if (local.video_id != static_cast<VideoId>(v)) {
      return SnapshotCorrupt(path_, "local model video ids not dense");
    }
    HMMM_ASSIGN_OR_RETURN(local.states, r.ReadInt32Vector());
    HMMM_ASSIGN_OR_RETURN(local.pi1, r.ReadDoubleVector());
    HMMM_ASSIGN_OR_RETURN(uint64_t a1_offset, r.ReadUint64());
    const size_t n = local.states.size();
    if (local.pi1.size() != n) {
      return SnapshotCorrupt(
          path_, StrFormat("local %llu: pi1/state count mismatch",
                           static_cast<unsigned long long>(v)));
    }
    for (ShotId s : local.states) {
      if (s < 0) return SnapshotCorrupt(path_, "negative state ShotId");
    }
    const uint64_t a1_bytes = static_cast<uint64_t>(n) * n * sizeof(double);
    if (a1_offset % kSnapshotAlignment != 0 ||
        a1_offset > a1_section->length ||
        a1_bytes > a1_section->length - a1_offset) {
      return SnapshotCorrupt(
          path_, StrFormat("local %llu: A1 block out of bounds",
                           static_cast<unsigned long long>(v)));
    }
    local.a1 = Matrix::FromBorrowed(
        a1_base + a1_offset / sizeof(double), n, n);
    total_states += n;
  }
  if (!r.AtEnd()) {
    return SnapshotCorrupt(path_, "trailing bytes in model meta");
  }

  // Cheap cross-section agreement checks (the full Validate() is the
  // writer's job — rerunning it would allocate O(states x features)).
  const size_t k = model.b1_.cols();
  if (model.b1_.rows() != total_states ||
      model.a2_.rows() != num_locals ||
      model.b2_.rows() != num_locals || model.b2_.cols() != vocab_size ||
      model.pi2_.size() != num_locals ||
      model.p12_.rows() != vocab_size || model.p12_.cols() != k ||
      model.b1_prime_.rows() != vocab_size || model.b1_prime_.cols() != k ||
      model.feature_minima_.size() != k ||
      model.feature_maxima_.size() != k) {
    return SnapshotCorrupt(path_, "model sections disagree on shapes");
  }
  model.RebuildStateIndex();
  return model;
}

StatusOr<VideoAffinity> SnapshotReader::BuildA2(uint64_t m) const {
  HMMM_ASSIGN_OR_RETURN(std::string_view table, SectionBytes(kSectionA2Rows));
  if (m > table.size() / kSnapshotA2RowBytes ||
      table.size() != m * kSnapshotA2RowBytes) {
    return SnapshotCorrupt(
        path_, StrFormat("A2 row table: %zu bytes for %llu rows", table.size(),
                         static_cast<unsigned long long>(m)));
  }
  const auto* base = reinterpret_cast<const uint8_t*>(table.data());
  uint64_t dense_rows = 0;
  for (uint64_t r = 0; r < m; ++r) {
    if (ReadU32(base + r * kSnapshotA2RowBytes) == kSnapshotA2Dense) {
      ++dense_rows;
    }
  }
  HMMM_ASSIGN_OR_RETURN(Matrix dense,
                        BorrowMatrix(kSectionA2Dense, dense_rows, m));
  VideoAffinity a2(m, 0.0);
  std::vector<bool> slot_used(dense_rows, false);
  for (uint64_t r = 0; r < m; ++r) {
    const uint8_t* entry = base + r * kSnapshotA2RowBytes;
    const uint32_t kind = ReadU32(entry);
    const double value = ReadF64(entry + 8);
    const uint64_t width = ReadU64(entry + 16);
    const uint64_t slot = ReadU64(entry + 24);
    if (kind == kSnapshotA2Uniform) {
      // The guarantees the Step-2 chain's uniform-row pick rests on.
      if (!std::isfinite(value) || value < 0.0 || width > m) {
        return SnapshotCorrupt(
            path_, StrFormat("A2 row %llu: bad uniform row (%g, %llu)",
                             static_cast<unsigned long long>(r), value,
                             static_cast<unsigned long long>(width)));
      }
      a2.SetUniform(r, value, width);
    } else if (kind == kSnapshotA2Dense) {
      if (slot >= dense_rows || slot_used[slot]) {
        return SnapshotCorrupt(
            path_, StrFormat("A2 row %llu: dense slot %llu out of range or "
                             "reused",
                             static_cast<unsigned long long>(r),
                             static_cast<unsigned long long>(slot)));
      }
      slot_used[slot] = true;
      a2.BorrowRow(r, dense.RowPtr(slot));
    } else {
      return SnapshotCorrupt(
          path_, StrFormat("A2 row %llu: unknown kind %u",
                           static_cast<unsigned long long>(r), kind));
    }
  }
  return a2;
}

StatusOr<EventBitmapIndex> SnapshotReader::BuildEventIndex(
    const HierarchicalModel& model, const VideoCatalog& catalog) const {
  if (!has_event_index_) {
    return Status::NotFound("snapshot file " + path_ +
                            " carries no event index");
  }
  HMMM_ASSIGN_OR_RETURN(std::string_view meta, SectionBytes(kSectionIndexMeta));
  BinaryReader r(meta);
  HMMM_ASSIGN_OR_RETURN(double epsilon, r.ReadDouble());
  HMMM_ASSIGN_OR_RETURN(uint64_t rows, r.ReadUint64());
  HMMM_ASSIGN_OR_RETURN(uint64_t cols, r.ReadUint64());
  if (!r.AtEnd()) {
    return SnapshotCorrupt(path_, "trailing bytes in index meta");
  }
  if (rows != model.vocabulary().size() ||
      cols != model.num_global_states()) {
    return SnapshotCorrupt(path_, "event-sims shape disagrees with model");
  }
  HMMM_ASSIGN_OR_RETURN(Matrix sims,
                        BorrowMatrix(kSectionEventSims, rows, cols));
  return EventBitmapIndex(model, catalog, std::move(sims), epsilon);
}

}  // namespace hmmm
