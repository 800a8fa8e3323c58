#ifndef HMMM_SNAPSHOT_SNAPSHOT_FORMAT_H_
#define HMMM_SNAPSHOT_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace hmmm {

// The frozen on-disk snapshot format (DESIGN.md §11): one file holding a
// VideoCatalog + HierarchicalModel + the precomputed event-index sims in
// a layout that can be mmap'ed and served without deserialization.
//
//   [ 64-byte header ]
//   [ section table: section_count x 32-byte entries ]
//   [ section payloads, aligned sections padded to 32-byte offsets ]
//
// All scalars are little-endian fixed width (the same convention as
// BinaryWriter and the wire protocol; the serving fleet is LE-only and
// the loader rejects nothing else — a BE port would byte-swap at open).
// Matrix sections are raw row-major f64 exactly as AlignedAllocator lays
// them out on the heap, and start at file offsets ≡ 0 (mod 32); since
// mmap bases are page-aligned, a mapped matrix base carries the same
// 32-byte alignment guarantee as an owned Matrix buffer, so the Eq.-14
// SIMD kernels run unmodified on mapped pages.
//
// Version-bump rules mirror the wire protocol's (DESIGN.md §6): adding a
// NEW optional section keeps the version (readers ignore unknown section
// ids); changing the header, the section-table entry layout, or the
// encoding of an EXISTING section bumps kSnapshotVersion, and readers
// reject versions they do not know (kDataLoss "unsupported snapshot
// version") rather than guessing.

/// "HMMS" in the same spelling convention as kCatalogMagic ("HMMC") and
/// kModelMagic ("HMMM").
inline constexpr uint32_t kSnapshotMagic = 0x484D4D53;
/// Version 2 replaced version 1's dense A2 section (id 8) with the A2 row
/// table and dense-row block (ids 14 and 15).
inline constexpr uint32_t kSnapshotVersion = 2;

inline constexpr size_t kSnapshotHeaderBytes = 64;
inline constexpr size_t kSnapshotSectionEntryBytes = 32;
/// Alignment contract of flagged matrix sections — matches
/// AlignedAllocator's over-alignment of Matrix::Buffer.
inline constexpr size_t kSnapshotAlignment = 32;

/// Fixed 64-byte header at offset 0. `header_crc32c` covers bytes
/// [0, 52) — everything before itself; the reserved tail is zero.
/// `file_size` lets the reader detect a truncated tail (or a file that
/// grew) before touching any section, without reading the whole file.
struct SnapshotHeader {
  uint32_t magic = kSnapshotMagic;        // offset 0
  uint32_t version = kSnapshotVersion;    // offset 4
  uint64_t file_size = 0;                 // offset 8
  uint64_t generation = 0;                // offset 16
  uint64_t section_table_offset = 0;      // offset 24
  uint32_t section_count = 0;             // offset 32
  uint32_t section_table_crc32c = 0;      // offset 36
  uint64_t model_version = 0;             // offset 40; model.version() at freeze
  uint32_t flags = 0;                     // offset 48
  uint32_t header_crc32c = 0;             // offset 52
                                          // offset 56: 8 reserved zero bytes
};

/// Header flag: the snapshot carries the event-index sections
/// (kIndexMeta + kEventSims), so no index rebuild is needed at open.
inline constexpr uint32_t kSnapshotFlagHasEventIndex = 1u << 0;

/// One section-table entry (32 bytes on disk):
/// id(4) | flags(4) | offset(8) | length(8) | crc32c(4) | reserved(4).
struct SnapshotSection {
  uint32_t id = 0;
  uint32_t flags = 0;
  uint64_t offset = 0;  // absolute file offset of the payload
  uint64_t length = 0;  // payload bytes (excluding any alignment padding)
  uint32_t crc32c = 0;  // CRC-32C of the payload bytes
};

/// Section flag: the payload is a raw f64 array whose file offset must
/// be ≡ 0 (mod kSnapshotAlignment); the reader enforces this before
/// handing out borrowed matrix views.
inline constexpr uint32_t kSnapshotSectionAligned = 1u << 0;

/// Section ids. Values are frozen; new sections append new ids.
enum SnapshotSectionId : uint32_t {
  /// BinaryWriter blob: vocabulary, feature width, video names.
  kSectionCatalogMeta = 1,
  /// Packed 32-byte per-shot records (see snapshot_writer.cc): begin(f64)
  /// end(f64) video_id(i32) index_in_video(i32) event_offset(u32)
  /// event_count(u32). Shot order = ShotId order.
  kSectionShotTable = 2,
  /// Concatenated i32 event annotations, indexed by the shot table's
  /// (event_offset, event_count) windows.
  kSectionShotEvents = 3,
  /// Raw shot-feature table BB1: shots x features f64, aligned/borrowable.
  kSectionRawFeatures = 4,
  /// BinaryWriter blob: per-local metadata (video id, states, pi1, A1
  /// blob offset), Eq.-3 normalizer minima/maxima, pi2, matrix shapes.
  kSectionModelMeta = 5,
  /// Concatenated per-local A1 matrices, each local's block starting at
  /// a 32-byte boundary inside the section; aligned/borrowable.
  kSectionA1Blob = 6,
  kSectionB1 = 7,       // states x features f64, aligned/borrowable
  // 8 held version 1's dense videos x videos A2; retired.
  kSectionB2 = 9,       // videos x events f64, aligned/borrowable
  kSectionP12 = 10,     // events x features f64, aligned/borrowable
  kSectionB1Prime = 11, // events x features f64, aligned/borrowable
  /// BinaryWriter blob: centroid epsilon + event-sims shape.
  kSectionIndexMeta = 12,
  /// Precomputed exact Eq.-14 sims: events x global-states f64,
  /// aligned/borrowable — the expensive part of EventBitmapIndex.
  kSectionEventSims = 13,
  /// A2 row table: one kSnapshotA2RowBytes entry per video, kind(u32)
  /// reserved(u32) value(f64) width(u64) dense_slot(u64). A uniform row
  /// (kind 0) is `value` on columns [0, width); a dense row (kind 1) is
  /// the videos doubles at slot dense_slot of kSectionA2Dense. Each slot
  /// belongs to exactly one row.
  kSectionA2Rows = 14,
  /// The dense A2 rows, videos f64 per slot, slot after slot;
  /// aligned/borrowable.
  kSectionA2Dense = 15,
};

inline constexpr size_t kSnapshotA2RowBytes = 32;
inline constexpr uint32_t kSnapshotA2Uniform = 0;
inline constexpr uint32_t kSnapshotA2Dense = 1;

/// Rounds `offset` up to the next kSnapshotAlignment boundary.
inline constexpr uint64_t SnapshotAlignUp(uint64_t offset) {
  return (offset + kSnapshotAlignment - 1) & ~uint64_t{kSnapshotAlignment - 1};
}

}  // namespace hmmm

#endif  // HMMM_SNAPSHOT_SNAPSHOT_FORMAT_H_
