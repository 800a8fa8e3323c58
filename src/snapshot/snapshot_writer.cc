#include "snapshot/snapshot_writer.h"

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/serialization.h"
#include "common/strings.h"
#include "retrieval/query_plan.h"
#include "snapshot/snapshot_format.h"

namespace hmmm {
namespace {

// Raw little-endian appends for the fixed-layout pieces (header, section
// table, packed shot table). The build targets LE only — see the format
// comment in snapshot_format.h — so a memcpy of the native value IS the
// wire encoding, same as BinaryWriter's scalars.
void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A matrix payload: the row-major f64 buffer, byte for byte.
void AppendMatrixBytes(std::string* out, const Matrix& m) {
  out->append(reinterpret_cast<const char*>(m.ptr()),
              m.size() * sizeof(double));
}

struct PendingSection {
  uint32_t id = 0;
  uint32_t flags = 0;
  std::string payload;
};

std::string EncodeCatalogMeta(const VideoCatalog& catalog) {
  BinaryWriter w;
  w.WriteVarint(catalog.vocabulary().size());
  for (const std::string& name : catalog.vocabulary().names()) {
    w.WriteString(name);
  }
  w.WriteInt32(catalog.num_features());
  w.WriteVarint(catalog.num_videos());
  for (const VideoRecord& video : catalog.videos()) {
    w.WriteString(video.name);
  }
  return w.TakeBuffer();
}

// The per-shot fixed record of kSectionShotTable. Per-video shot lists
// are NOT stored: within a video, ShotIds ascend in temporal order, so
// the reader rebuilds every video's list in one pass over this table.
std::string EncodeShotTable(const VideoCatalog& catalog,
                            std::string* shot_events) {
  std::string table;
  table.reserve(catalog.num_shots() * 32);
  uint32_t event_offset = 0;
  for (const ShotRecord& shot : catalog.shots()) {
    AppendF64(&table, shot.begin_time);
    AppendF64(&table, shot.end_time);
    AppendI32(&table, shot.video_id);
    AppendI32(&table, shot.index_in_video);
    AppendU32(&table, event_offset);
    AppendU32(&table, static_cast<uint32_t>(shot.events.size()));
    for (EventId e : shot.events) AppendI32(shot_events, e);
    event_offset += static_cast<uint32_t>(shot.events.size());
  }
  return table;
}

std::string EncodeRawFeatures(const VideoCatalog& catalog) {
  std::string out;
  const size_t row_bytes =
      static_cast<size_t>(catalog.num_features()) * sizeof(double);
  out.reserve(catalog.num_shots() * row_bytes);
  for (size_t s = 0; s < catalog.num_shots(); ++s) {
    out.append(
        reinterpret_cast<const char*>(catalog.RawFeatureRow(
            static_cast<ShotId>(s))),
        row_bytes);
  }
  return out;
}

/// Concatenates every local A1 into one section, each block starting at
/// a kSnapshotAlignment boundary (the section itself is aligned, so
/// in-section alignment carries to the file offset). Returns the blob;
/// fills `offsets` with each local's block offset for the model meta.
std::string EncodeA1Blob(const HierarchicalModel& model,
                         std::vector<uint64_t>* offsets) {
  std::string blob;
  offsets->reserve(model.locals().size());
  for (const LocalShotModel& local : model.locals()) {
    blob.resize(SnapshotAlignUp(blob.size()), '\0');
    offsets->push_back(blob.size());
    AppendMatrixBytes(&blob, local.a1);
  }
  return blob;
}

/// The A2 row table and dense-row block: dense rows take slots in row
/// order.
void EncodeA2(const VideoAffinity& a2, std::string* rows, std::string* dense) {
  rows->reserve(a2.rows() * kSnapshotA2RowBytes);
  uint64_t slot = 0;
  for (size_t r = 0; r < a2.rows(); ++r) {
    const VideoAffinity::RowView row = a2.row(r);
    AppendU32(rows, row.uniform() ? kSnapshotA2Uniform : kSnapshotA2Dense);
    AppendU32(rows, 0);  // reserved
    AppendF64(rows, row.uniform() ? row.value() : 0.0);
    AppendU64(rows, row.uniform() ? row.width() : 0);
    AppendU64(rows, row.uniform() ? 0 : slot++);
    if (!row.uniform()) {
      dense->append(reinterpret_cast<const char*>(row.dense()),
                    a2.cols() * sizeof(double));
    }
  }
}

template <typename M>
void WriteShape(BinaryWriter* w, const M& m) {
  w->WriteUint64(m.rows());
  w->WriteUint64(m.cols());
}

std::string EncodeModelMeta(const HierarchicalModel& model,
                            const std::vector<uint64_t>& a1_offsets) {
  BinaryWriter w;
  w.WriteVarint(model.vocabulary().size());
  for (const std::string& name : model.vocabulary().names()) {
    w.WriteString(name);
  }
  w.WriteDoubleVector(model.feature_minima());
  w.WriteDoubleVector(model.feature_maxima());
  w.WriteDoubleVector(model.pi2());
  WriteShape(&w, model.b1());
  WriteShape(&w, model.a2());
  WriteShape(&w, model.b2());
  WriteShape(&w, model.p12());
  WriteShape(&w, model.b1_prime());
  w.WriteVarint(model.locals().size());
  for (size_t i = 0; i < model.locals().size(); ++i) {
    const LocalShotModel& local = model.locals()[i];
    w.WriteInt32(local.video_id);
    w.WriteInt32Vector(local.states);
    w.WriteDoubleVector(local.pi1);
    w.WriteUint64(a1_offsets[i]);
  }
  return w.TakeBuffer();
}

std::string EncodeIndexMeta(double centroid_epsilon, const Matrix& sims) {
  BinaryWriter w;
  w.WriteDouble(centroid_epsilon);
  w.WriteUint64(sims.rows());
  w.WriteUint64(sims.cols());
  return w.TakeBuffer();
}

void AppendSectionEntry(std::string* table, const SnapshotSection& s) {
  AppendU32(table, s.id);
  AppendU32(table, s.flags);
  AppendU64(table, s.offset);
  AppendU64(table, s.length);
  AppendU32(table, s.crc32c);
  AppendU32(table, 0);  // reserved
}

}  // namespace

std::string BuildSnapshotImage(const HierarchicalModel& model,
                               const VideoCatalog& catalog,
                               const SnapshotWriteOptions& options) {
  std::vector<PendingSection> sections;
  {
    std::string shot_events;
    std::string shot_table = EncodeShotTable(catalog, &shot_events);
    sections.push_back({kSectionCatalogMeta, 0, EncodeCatalogMeta(catalog)});
    sections.push_back({kSectionShotTable, 0, std::move(shot_table)});
    sections.push_back({kSectionShotEvents, 0, std::move(shot_events)});
    sections.push_back(
        {kSectionRawFeatures, kSnapshotSectionAligned,
         EncodeRawFeatures(catalog)});
  }
  {
    std::vector<uint64_t> a1_offsets;
    std::string a1_blob = EncodeA1Blob(model, &a1_offsets);
    sections.push_back(
        {kSectionModelMeta, 0, EncodeModelMeta(model, a1_offsets)});
    sections.push_back(
        {kSectionA1Blob, kSnapshotSectionAligned, std::move(a1_blob)});
  }
  const Matrix* aligned[] = {&model.b1(), &model.b2(), &model.p12(),
                             &model.b1_prime()};
  const uint32_t aligned_ids[] = {kSectionB1, kSectionB2, kSectionP12,
                                  kSectionB1Prime};
  for (size_t i = 0; i < 4; ++i) {
    std::string payload;
    AppendMatrixBytes(&payload, *aligned[i]);
    sections.push_back(
        {aligned_ids[i], kSnapshotSectionAligned, std::move(payload)});
  }
  {
    std::string rows;
    std::string dense;
    EncodeA2(model.a2(), &rows, &dense);
    sections.push_back({kSectionA2Rows, 0, std::move(rows)});
    sections.push_back(
        {kSectionA2Dense, kSnapshotSectionAligned, std::move(dense)});
  }
  uint32_t flags = 0;
  if (options.include_event_index) {
    flags |= kSnapshotFlagHasEventIndex;
    // The same sims every server's index build would produce at startup —
    // frozen once here so every open skips that sweep.
    const EventBitmapIndex index(model, catalog);
    sections.push_back(
        {kSectionIndexMeta, 0,
         EncodeIndexMeta(index.sims_centroid_epsilon(), index.event_sims())});
    std::string sims;
    AppendMatrixBytes(&sims, index.event_sims());
    sections.push_back(
        {kSectionEventSims, kSnapshotSectionAligned, std::move(sims)});
  }

  // Lay out: header | section table | payloads (aligned ones padded).
  // kSnapshotHeaderBytes and the 32-byte entries are both multiples of
  // kSnapshotAlignment, so file offsets only need the explicit AlignUp.
  std::vector<SnapshotSection> entries(sections.size());
  uint64_t cursor =
      kSnapshotHeaderBytes + sections.size() * kSnapshotSectionEntryBytes;
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].flags & kSnapshotSectionAligned) {
      cursor = SnapshotAlignUp(cursor);
    }
    entries[i].id = sections[i].id;
    entries[i].flags = sections[i].flags;
    entries[i].offset = cursor;
    entries[i].length = sections[i].payload.size();
    entries[i].crc32c =
        Crc32c(sections[i].payload.data(), sections[i].payload.size());
    cursor += sections[i].payload.size();
  }
  const uint64_t file_size = cursor;

  std::string table;
  table.reserve(entries.size() * kSnapshotSectionEntryBytes);
  for (const SnapshotSection& s : entries) AppendSectionEntry(&table, s);

  std::string header;
  header.reserve(kSnapshotHeaderBytes);
  AppendU32(&header, kSnapshotMagic);
  AppendU32(&header, kSnapshotVersion);
  AppendU64(&header, file_size);
  AppendU64(&header, options.generation);
  AppendU64(&header, kSnapshotHeaderBytes);  // section_table_offset
  AppendU32(&header, static_cast<uint32_t>(entries.size()));
  AppendU32(&header, Crc32c(table.data(), table.size()));
  AppendU64(&header, model.version());
  AppendU32(&header, flags);
  AppendU32(&header, Crc32c(header.data(), header.size()));  // over [0, 52)
  AppendU64(&header, 0);  // reserved tail

  std::string image;
  image.reserve(file_size);
  image.append(header);
  image.append(table);
  for (size_t i = 0; i < sections.size(); ++i) {
    image.resize(entries[i].offset, '\0');  // alignment padding
    image.append(sections[i].payload);
  }
  return image;
}

Status WriteSnapshot(const HierarchicalModel& model,
                     const VideoCatalog& catalog, const std::string& path,
                     const SnapshotWriteOptions& options) {
  return WriteFile(path, BuildSnapshotImage(model, catalog, options));
}

StatusOr<std::string> PublishSnapshot(const HierarchicalModel& model,
                                      const VideoCatalog& catalog,
                                      const std::string& dir,
                                      uint64_t generation) {
  const std::string name = StrFormat("snapshot-%llu.hmms",
                                     static_cast<unsigned long long>(generation));
  const std::string path = dir + "/" + name;
  SnapshotWriteOptions options;
  options.generation = generation;
  HMMM_RETURN_IF_ERROR(WriteSnapshot(model, catalog, path, options));
  // Both writes are tmp+rename, so a crash between them leaves the old
  // CURRENT pointing at the old (intact) generation — never a torn file.
  HMMM_RETURN_IF_ERROR(
      WriteFile(dir + "/" + kSnapshotCurrentFile, name + "\n"));
  return path;
}

StatusOr<std::string> ResolveCurrentSnapshot(const std::string& dir) {
  HMMM_ASSIGN_OR_RETURN(std::string current,
                        ReadFileToString(dir + "/" + kSnapshotCurrentFile));
  while (!current.empty() &&
         (current.back() == '\n' || current.back() == '\r' ||
          current.back() == ' ')) {
    current.pop_back();
  }
  if (current.empty() || current.find('/') != std::string::npos) {
    return Status::DataLoss("snapshot CURRENT file at " + dir +
                            " does not name a snapshot");
  }
  return dir + "/" + current;
}

}  // namespace hmmm
