#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/learner.h"
#include "core/model_builder.h"
#include "snapshot/snapshot_format.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"

namespace hmmm {
namespace {

// Corruption corpus for the mmap snapshot loader: every test takes a
// healthy image, damages one structural invariant, re-seals whatever
// checksums the damage is supposed to hide behind, and asserts the open
// path classifies it as kDataLoss (corruption — never retried) rather
// than kIOError (transient) or a crash.

uint32_t GetU32(const std::string& image, size_t offset) {
  uint32_t v;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

uint64_t GetU64(const std::string& image, size_t offset) {
  uint64_t v;
  std::memcpy(&v, image.data() + offset, sizeof(v));
  return v;
}

void PutU32(std::string* image, size_t offset, uint32_t v) {
  std::memcpy(image->data() + offset, &v, sizeof(v));
}

void PutU64(std::string* image, size_t offset, uint64_t v) {
  std::memcpy(image->data() + offset, &v, sizeof(v));
}

// Re-seals the header checksum after a deliberate header edit, so the
// edited field itself — not the checksum — is what the reader trips on.
void SealHeader(std::string* image) {
  PutU32(image, 52, Crc32c(image->data(), 52));
}

// Re-seals the section-table checksum (and the header over it).
void SealTable(std::string* image) {
  const uint32_t count = GetU32(*image, 32);
  PutU32(image, 36,
         Crc32c(image->data() + kSnapshotHeaderBytes,
                static_cast<size_t>(count) * kSnapshotSectionEntryBytes));
  SealHeader(image);
}

struct TableEntry {
  size_t table_pos = 0;  // byte offset of this entry within the image
  uint32_t id = 0;
  uint32_t flags = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

std::vector<TableEntry> ParseTable(const std::string& image) {
  const uint32_t count = GetU32(image, 32);
  std::vector<TableEntry> entries(count);
  for (uint32_t i = 0; i < count; ++i) {
    TableEntry& e = entries[i];
    e.table_pos = kSnapshotHeaderBytes + i * kSnapshotSectionEntryBytes;
    e.id = GetU32(image, e.table_pos);
    e.flags = GetU32(image, e.table_pos + 4);
    e.offset = GetU64(image, e.table_pos + 8);
    e.length = GetU64(image, e.table_pos + 16);
  }
  return entries;
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VideoCatalog catalog = testing::SmallSoccerCatalog();
    auto model = ModelBuilder(catalog).Build();
    ASSERT_TRUE(model.ok()) << model.status();
    image_ = BuildSnapshotImage(*model, catalog);
    // Six videos, rows 0 and 1 trained dense and the rest uniform: every
    // A2 row kind.
    const VideoCatalog six = testing::GeneratedSoccerCatalog(7, 6);
    auto trained = ModelBuilder(six).Build();
    ASSERT_TRUE(trained.ok()) << trained.status();
    ASSERT_TRUE(
        OfflineLearner().ApplyVideoPatterns(*trained, {{{0, 1}, 1.0}}).ok());
    trained_image_ = BuildSnapshotImage(*trained, six);
    num_videos_ = trained->num_videos();
    path_ = testing::TempPath("snapshot_corruption.hmms");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes damaged bytes verbatim (no tmp+rename — the damage IS the
  // point) and returns the open status under the given verification mode.
  Status OpenStatus(const std::string& bytes, bool verify = false) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    SnapshotOptions options;
    options.verify_section_crcs = verify;
    return SnapshotReader::Open(path_, options).status();
  }

  // Open plus BuildModel, the path VideoDatabase::OpenSnapshot takes to
  // the A2 sections.
  Status BuildModelStatus(const std::string& bytes) {
    const Status opened = OpenStatus(bytes);
    if (!opened.ok()) return opened;
    auto reader = SnapshotReader::Open(path_, SnapshotOptions{});
    if (!reader.ok()) return reader.status();
    return (*reader)->BuildModel().status();
  }

  std::string image_;
  std::string trained_image_;
  size_t num_videos_ = 0;
  std::string path_;
};

const TableEntry& FindEntry(const std::vector<TableEntry>& entries,
                            uint32_t id) {
  for (const TableEntry& entry : entries) {
    if (entry.id == id) return entry;
  }
  ADD_FAILURE() << "no section " << id;
  return entries.front();
}

// Re-seals one section's payload checksum after editing its bytes, so
// only the reader's semantic checks can object.
void SealSection(std::string* image, const TableEntry& entry) {
  PutU32(image, entry.table_pos + 24,
         Crc32c(image->data() + entry.offset, entry.length));
  SealTable(image);
}

void PutF64(std::string* image, size_t offset, double v) {
  std::memcpy(image->data() + offset, &v, sizeof(v));
}

TEST_F(SnapshotCorruptionTest, HealthyImageOpensUnderFullVerification) {
  const Status status = OpenStatus(image_, /*verify=*/true);
  EXPECT_TRUE(status.ok()) << status;
}

TEST_F(SnapshotCorruptionTest, BadMagicIsDataLoss) {
  std::string bad = image_;
  PutU32(&bad, 0, 0xDEADBEEF);
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("magic"), std::string::npos) << status;
}

TEST_F(SnapshotCorruptionTest, FutureVersionIsDataLossNotAGuess) {
  std::string bad = image_;
  PutU32(&bad, 4, kSnapshotVersion + 1);
  SealHeader(&bad);
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("version"), std::string::npos) << status;
}

TEST_F(SnapshotCorruptionTest, VersionOneFileIsUnsupported) {
  // Version 1 stored A2 densely in the retired section 8.
  std::string bad = image_;
  PutU32(&bad, 4, 1);
  SealHeader(&bad);
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("unsupported snapshot version"),
            std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, HeaderBitFlipIsCaughtByTheHeaderChecksum) {
  std::string bad = image_;
  bad[16] ^= 0x01;  // generation field, checksum NOT re-sealed
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("header checksum"), std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, TruncatedTailIsDataLoss) {
  std::string bad = image_.substr(0, image_.size() - 7);
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated"), std::string::npos) << status;
}

TEST_F(SnapshotCorruptionTest, FileShorterThanAHeaderIsDataLoss) {
  const Status status = OpenStatus("HMMS");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, MissingFileIsNotFoundNotDataLoss) {
  const Status status =
      SnapshotReader::Open(testing::TempPath("no_such_snapshot.hmms"))
          .status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(SnapshotCorruptionTest, TableBitFlipIsCaughtByTheTableChecksum) {
  std::string bad = image_;
  bad[kSnapshotHeaderBytes + 16] ^= 0x40;  // first entry's length field
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("section table checksum"),
            std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipInEverySectionFailsVerifiedOpen) {
  const std::vector<TableEntry> entries = ParseTable(image_);
  ASSERT_FALSE(entries.empty());
  for (const TableEntry& entry : entries) {
    if (entry.length == 0) continue;
    SCOPED_TRACE("section " + std::to_string(entry.id));
    std::string bad = image_;
    bad[entry.offset + entry.length / 2] ^= 0x10;
    const Status status = OpenStatus(bad, /*verify=*/true);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("checksum"), std::string::npos) << status;
  }
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlipInEveryTrainedSectionFailsVerifiedOpen) {
  // The trained image's dense A2 block is non-empty, so it is covered too.
  const std::vector<TableEntry> entries = ParseTable(trained_image_);
  EXPECT_GT(FindEntry(entries, kSectionA2Dense).length, 0u);
  for (const TableEntry& entry : entries) {
    if (entry.length == 0) continue;
    SCOPED_TRACE("section " + std::to_string(entry.id));
    std::string bad = trained_image_;
    bad[entry.offset + entry.length / 2] ^= 0x10;
    const Status status = OpenStatus(bad, /*verify=*/true);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("checksum"), std::string::npos) << status;
  }
}

TEST_F(SnapshotCorruptionTest, A2UniformWidthBeyondTheVideoCountIsDataLoss) {
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  std::string bad = trained_image_;
  PutU64(&bad, rows.offset + 2 * kSnapshotA2RowBytes + 16, num_videos_ + 1);
  SealSection(&bad, rows);
  const Status status = BuildModelStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("bad uniform row"), std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, A2BadUniformValueIsDataLoss) {
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  const double inf = std::numeric_limits<double>::infinity();
  for (double value : {-0.25, std::nan(""), inf, -inf}) {
    SCOPED_TRACE(value);
    std::string bad = trained_image_;
    PutF64(&bad, rows.offset + 2 * kSnapshotA2RowBytes + 8, value);
    SealSection(&bad, rows);
    const Status status = BuildModelStatus(bad);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_NE(status.message().find("bad uniform row"), std::string::npos)
        << status;
  }
}

TEST_F(SnapshotCorruptionTest, A2DenseSlotOutOfRangeOrReusedIsDataLoss) {
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  // Rows 0 and 1 are dense in slots 0 and 1.
  for (uint64_t slot : {uint64_t{2}, uint64_t{0}, ~uint64_t{0}}) {
    SCOPED_TRACE(slot);
    std::string bad = trained_image_;
    PutU64(&bad, rows.offset + 1 * kSnapshotA2RowBytes + 24, slot);
    SealSection(&bad, rows);
    const Status status = BuildModelStatus(bad);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_NE(status.message().find("dense slot"), std::string::npos)
        << status;
  }
}

TEST_F(SnapshotCorruptionTest, A2UnknownRowKindIsDataLoss) {
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  std::string bad = trained_image_;
  PutU32(&bad, rows.offset + 3 * kSnapshotA2RowBytes, 7);
  SealSection(&bad, rows);
  const Status status = BuildModelStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("unknown kind"), std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, A2DenseBlockOfTheWrongLengthIsDataLoss) {
  const TableEntry dense =
      FindEntry(ParseTable(trained_image_), kSectionA2Dense);
  for (uint64_t length : {dense.length - sizeof(double),
                          dense.length / 2, uint64_t{0}}) {
    SCOPED_TRACE(length);
    std::string bad = trained_image_;
    PutU64(&bad, dense.table_pos + 16, length);
    PutU32(&bad, dense.table_pos + 24, Crc32c(bad.data() + dense.offset,
                                              static_cast<size_t>(length)));
    SealTable(&bad);
    const Status status = BuildModelStatus(bad);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_NE(status.message().find("expected"), std::string::npos)
        << status;
  }
  // A row table that is not one entry per video.
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  std::string bad = trained_image_;
  PutU64(&bad, rows.table_pos + 16, rows.length - kSnapshotA2RowBytes);
  SealTable(&bad);
  const Status status = BuildModelStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("A2 row table"), std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, EveryA2RowTableByteMutationFailsTypedOrBuilds) {
  // Deterministic byte mutations of the A2 row table, each re-sealed so
  // the semantic checks see it: every one must build or fail with
  // kDataLoss, and a model that builds must hold only uniform rows the
  // Step-2 chain can rely on. Meant for the sanitizer builds.
  const TableEntry rows =
      FindEntry(ParseTable(trained_image_), kSectionA2Rows);
  size_t rejected = 0;
  for (uint64_t i = 0; i < rows.length; ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string bad = trained_image_;
      bad[rows.offset + i] = static_cast<char>(bad[rows.offset + i] ^ mask);
      SealSection(&bad, rows);
      ASSERT_TRUE(OpenStatus(bad).ok());
      auto reader = SnapshotReader::Open(path_, SnapshotOptions{});
      ASSERT_TRUE(reader.ok()) << reader.status();
      auto model = (*reader)->BuildModel();
      if (!model.ok()) {
        EXPECT_EQ(model.status().code(), StatusCode::kDataLoss)
            << "byte " << i << ": " << model.status();
        ++rejected;
        continue;
      }
      const VideoAffinity& a2 = model->a2();
      for (size_t r = 0; r < a2.rows(); ++r) {
        const VideoAffinity::RowView row = a2.row(r);
        if (!row.uniform()) continue;
        EXPECT_TRUE(std::isfinite(row.value()) && row.value() >= 0.0 &&
                    row.width() <= a2.cols())
            << "byte " << i;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(SnapshotCorruptionTest, LazyOpenSkipsPayloadChecksums) {
  // With verification off, open touches only the header and table — a
  // payload flip surfaces later (if at all), which is the documented
  // cost of O(1) opens. A flipped feature double must not block open.
  const std::vector<TableEntry> entries = ParseTable(image_);
  for (const TableEntry& entry : entries) {
    if (entry.id != kSectionRawFeatures) continue;
    std::string bad = image_;
    bad[entry.offset + 8] ^= 0x10;
    const Status status = OpenStatus(bad, /*verify=*/false);
    EXPECT_TRUE(status.ok()) << status;
    return;
  }
  FAIL() << "no raw-features section in image";
}

TEST_F(SnapshotCorruptionTest, MisalignedMatrixSectionIsDataLoss) {
  const std::vector<TableEntry> entries = ParseTable(image_);
  for (const TableEntry& entry : entries) {
    if ((entry.flags & kSnapshotSectionAligned) == 0) continue;
    std::string bad = image_;
    PutU64(&bad, entry.table_pos + 8, entry.offset + 8);
    SealTable(&bad);
    const Status status = OpenStatus(bad);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("misaligned"), std::string::npos)
        << status;
    return;
  }
  FAIL() << "no aligned section in image";
}

TEST_F(SnapshotCorruptionTest, SectionBeyondTheFileIsDataLoss) {
  const std::vector<TableEntry> entries = ParseTable(image_);
  ASSERT_FALSE(entries.empty());
  std::string bad = image_;
  PutU64(&bad, entries[0].table_pos + 16,
         static_cast<uint64_t>(image_.size()) * 2);
  SealTable(&bad);
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("out of bounds"), std::string::npos)
      << status;
}

TEST_F(SnapshotCorruptionTest, ShotTableOrderViolationIsDataLossAtBuild) {
  // Swap two shots' video ids in the packed table: the per-video
  // index_in_video replay no longer lines up, and BuildCatalog — not the
  // open — reports corruption. Seal the section CRC so only the semantic
  // check can object.
  const std::vector<TableEntry> entries = ParseTable(image_);
  for (const TableEntry& entry : entries) {
    if (entry.id != kSectionShotTable) continue;
    ASSERT_GE(entry.length, 64u);
    std::string bad = image_;
    PutU32(&bad, entry.offset + 16, 1);  // shot 0 now claims video 1
    PutU32(&bad, entry.table_pos + 24,
           Crc32c(bad.data() + entry.offset, entry.length));
    SealTable(&bad);
    ASSERT_TRUE(OpenStatus(bad, /*verify=*/true).ok());
    SnapshotOptions options;
    auto reader = SnapshotReader::Open(path_, options);
    ASSERT_TRUE(reader.ok()) << reader.status();
    const Status built = (*reader)->BuildCatalog().status();
    EXPECT_EQ(built.code(), StatusCode::kDataLoss) << built;
    return;
  }
  FAIL() << "no shot-table section in image";
}

}  // namespace
}  // namespace hmmm
