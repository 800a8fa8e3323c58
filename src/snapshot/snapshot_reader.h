#ifndef HMMM_SNAPSHOT_SNAPSHOT_READER_H_
#define HMMM_SNAPSHOT_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/hierarchical_model.h"
#include "observability/metrics_registry.h"
#include "retrieval/query_plan.h"
#include "snapshot/snapshot_format.h"
#include "storage/catalog.h"

namespace hmmm {

struct SnapshotOptions {
  /// CRC-check every section payload at open. Off by default: reading
  /// every byte is exactly the O(file size) work the mmap path exists to
  /// avoid, and the header + section-table CRCs (always verified) catch
  /// torn writes and truncation. Turn on where opens are rare and paranoia
  /// is cheap — e.g. the coordinator validating a fresh generation before
  /// repointing shards at it.
  bool verify_section_crcs = false;
  /// madvise(MADV_WILLNEED): prefault the whole file into the page cache
  /// at open — trades a one-time readahead for no first-query page-fault
  /// stalls. Cold-start oriented.
  bool advise_willneed = false;
  /// madvise(MADV_RANDOM): disable kernel readahead; right when queries
  /// touch scattered matrix rows and the file dwarfs memory.
  bool advise_random = false;
  /// msync(MS_SYNC) the mapping at open — flushes nothing for a read-only
  /// mapping but forces the dirty-page bookkeeping some filesystems defer;
  /// measurable via hmmm_snapshot_advise_ms either way.
  bool msync_on_open = false;
  /// Sink for hmmm_snapshot_* open/advise metrics; may be null.
  MetricsRegistry* metrics = nullptr;
};

/// A read-only mmap'ed file. Unmaps on destruction; movable, not
/// copyable.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const {
    return static_cast<const uint8_t*>(addr_);
  }
  size_t size() const { return size_; }
  bool mapped() const { return addr_ != nullptr; }

 private:
  friend class SnapshotReader;
  void* addr_ = nullptr;
  size_t size_ = 0;
};

/// Opens a frozen snapshot (snapshot_format.h) by mmap'ing it read-only
/// and serves the model/catalog/index straight from the mapped pages:
/// matrix sections become borrowed Matrix views, so Build* allocates only
/// the small metadata (shot records, local-state maps, bitsets) and never
/// copies a matrix. Open cost is O(header + section table), independent
/// of catalog size.
///
/// LIFETIME: everything Build* returns borrows the mapping. The reader
/// must outlive every catalog/model/index built from it — callers keep
/// the unique_ptr alongside the built objects (VideoDatabase::OpenSnapshot
/// stores it as a keepalive member). Mutating a borrowed matrix (e.g.
/// training on a snapshot-opened database) copies it to the heap first
/// (Matrix::EnsureOwned), so the mapping itself is never written.
///
/// Failure contract matches the blob loaders': kNotFound for a missing
/// file, kIOError for transient open/map failures (retried via
/// WithIoRetry before surfacing), kDataLoss for a bad magic / unsupported
/// version / CRC mismatch / truncation / malformed section.
class SnapshotReader {
 public:
  static StatusOr<std::unique_ptr<SnapshotReader>> Open(
      const std::string& path, const SnapshotOptions& options = {});

  const std::string& path() const { return path_; }
  uint64_t generation() const { return generation_; }
  /// model.version() at freeze time. Informational: the rebuilt model
  /// restarts at version 0, like the blob loader's.
  uint64_t frozen_model_version() const { return frozen_model_version_; }
  /// True when the snapshot carries the frozen event-index sections.
  bool has_event_index() const { return has_event_index_; }
  size_t file_size() const { return map_.size(); }
  const std::vector<SnapshotSection>& sections() const { return sections_; }

  /// Rebuilds the catalog: shot/video records from the packed shot table,
  /// features as a borrowed view of the mapped BB1 section.
  StatusOr<VideoCatalog> BuildCatalog() const;

  /// Rebuilds the model: all matrices borrowed from mapped sections (A2's
  /// dense rows too; its uniform rows are read from the row table), the
  /// state index rebuilt from the locals. Runs cheap shape/agreement
  /// checks only — the writer validated the full structure, and a full
  /// Validate() would allocate O(states x features), defeating O(1) open.
  StatusOr<HierarchicalModel> BuildModel() const;

  /// Rebuilds the event index from the frozen sims (borrowed) + the
  /// cheap O(annotations) bitsets. Requires has_event_index();
  /// `model`/`catalog` must be this reader's own Build* results.
  StatusOr<EventBitmapIndex> BuildEventIndex(
      const HierarchicalModel& model, const VideoCatalog& catalog) const;

  /// CRC-checks every section payload (the eager form of
  /// SnapshotOptions::verify_section_crcs). O(file size).
  Status VerifyAllSections() const;

 private:
  SnapshotReader() = default;

  Status ParseHeaderAndTable();
  const SnapshotSection* FindSection(uint32_t id) const;
  /// Payload bytes of section `id`; kDataLoss if absent. Carries the
  /// "snapshot.read" fault point (fires as kIOError).
  StatusOr<std::string_view> SectionBytes(uint32_t id) const;
  /// Borrowed matrix view of an aligned f64 section; checks the aligned
  /// flag and that the payload is exactly rows x cols doubles.
  StatusOr<Matrix> BorrowMatrix(uint32_t id, size_t rows, size_t cols) const;
  /// The m x m A2 from its row table: uniform rows as stored, dense rows
  /// borrowed from the dense-row block. Checks each row's kind, that a
  /// uniform row's value is finite and non-negative and its width <= m,
  /// and that the dense slots are a permutation of the block's rows.
  StatusOr<VideoAffinity> BuildA2(uint64_t m) const;

  std::string path_;
  MappedFile map_;
  uint64_t generation_ = 0;
  uint64_t frozen_model_version_ = 0;
  bool has_event_index_ = false;
  std::vector<SnapshotSection> sections_;
};

}  // namespace hmmm

#endif  // HMMM_SNAPSHOT_SNAPSHOT_READER_H_
