#include "core/video_affinity.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog_partition.h"
#include "api/video_database.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "core/learner.h"
#include "core/model_builder.h"
#include "dense_a2_oracle.h"
#include "storage/model_io.h"
#include "test_util.h"

namespace hmmm {
namespace {

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.ptr(), b.ptr(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(VideoAffinityTest, SetRowCompressesExactlyUniformRows) {
  const double third = 1.0 / 3.0;
  auto dense = Matrix::FromRows({{third, third, third, 0.0},
                                 {0.5, 0.5, 0.0, 0.0},
                                 {0.0, 0.0, 0.0, 0.0},
                                 {0.5, 0.5, -0.0, 0.0}});
  ASSERT_TRUE(dense.ok());
  VideoAffinity a2(4, 0.25);
  for (size_t r = 0; r < 4; ++r) a2.SetRow(r, dense->RowPtr(r));
  EXPECT_TRUE(a2.IsUniform(0));
  EXPECT_EQ(a2.row(0).width(), 3u);
  EXPECT_TRUE(a2.IsUniform(1));
  EXPECT_EQ(a2.row(1).value(), 0.5);
  EXPECT_TRUE(a2.IsUniform(2));
  // -0.0 is not the +0.0 a uniform row expands to: the row stays dense.
  EXPECT_TRUE(a2.IsOwned(3));
  EXPECT_TRUE(SameBits(a2.ToDense(), *dense));
}

TEST(VideoAffinityTest, WritingARowMaterializesThatRowOnly) {
  const size_t m = 4;
  std::vector<double> mapped = {0.1, 0.2, 0.3, 0.4, 0.4, 0.3, 0.2, 0.1};
  const std::vector<double> original = mapped;
  VideoAffinity a2(m, 0.25);
  a2.BorrowRow(1, mapped.data());
  a2.BorrowRow(2, mapped.data() + m);

  double* row = a2.MutableRow(2);
  EXPECT_EQ(row[0], 0.4);
  row[0] = 0.0;
  EXPECT_TRUE(a2.IsBorrowed(1));
  EXPECT_TRUE(a2.IsOwned(2));
  EXPECT_TRUE(a2.IsUniform(0));
  EXPECT_TRUE(a2.IsUniform(3));
  EXPECT_TRUE(SameBits(mapped, original));

  // A uniform row materializes its expansion.
  double* uniform = a2.MutableRow(3);
  EXPECT_EQ(std::vector<double>(uniform, uniform + m),
            std::vector<double>(m, 0.25));
  EXPECT_EQ(a2.at(1, 3), 0.4);
  EXPECT_EQ(a2.at(2, 0), 0.0);
}

TEST(VideoAffinityTest, NormalizeRowsMatchesTheDenseNormalizeBitForBit) {
  Rng rng(71);
  for (int round = 0; round < 100; ++round) {
    const size_t m = static_cast<size_t>(rng.NextInt(1, 40));
    VideoAffinity a2(m, 0.0);
    for (size_t r = 0; r < m; ++r) {
      if (rng.NextBernoulli(0.5)) {
        a2.SetUniform(r, rng.NextDouble(),
                      static_cast<size_t>(rng.NextInt(0, static_cast<int>(m))));
      } else {
        double* row = a2.MutableRow(r);
        for (size_t c = 0; c < m; ++c) {
          row[c] = rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble();
        }
      }
    }
    Matrix expected = a2.ToDense();
    expected.NormalizeRows();
    const std::vector<bool> uniform = [&] {
      std::vector<bool> kinds(m);
      for (size_t r = 0; r < m; ++r) kinds[r] = a2.IsUniform(r);
      return kinds;
    }();
    a2.NormalizeRows();
    EXPECT_TRUE(SameBits(a2.ToDense(), expected)) << "round " << round;
    for (size_t r = 0; r < m; ++r) {
      EXPECT_EQ(a2.IsUniform(r), uniform[r]) << "round " << round;
      EXPECT_EQ(a2.RowSum(r), expected.RowSum(r)) << "round " << round;
    }
    EXPECT_EQ(a2.Validate(1e-6).ok(),
              expected.IsRowStochastic(1e-6, /*accept_zero_rows=*/true))
        << "round " << round;
  }
}

TEST(VideoAffinityTest, ValidateRejectsUniformRowsTheStep2ChainCannotTrust) {
  VideoAffinity a2(3, 1.0 / 3.0);
  EXPECT_TRUE(a2.Validate(1e-6).ok());
  a2.SetUniform(1, 0.0, 3);  // an all-zero row is accepted
  EXPECT_TRUE(a2.Validate(1e-6).ok());
  for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    VideoAffinity broken = a2;
    broken.SetUniform(2, bad, 1);
    EXPECT_FALSE(broken.Validate(1e-6).ok()) << bad;
  }
  VideoAffinity wide = a2;
  wide.SetUniform(0, 0.25, 4);
  EXPECT_FALSE(wide.Validate(1e-6).ok());
  VideoAffinity off = a2;
  off.SetUniform(0, 0.5, 3);  // sums to 1.5
  EXPECT_FALSE(off.Validate(1e-6).ok());
}

/// The model blob exactly as it was written when A2 was a dense Matrix.
std::string DenseLayoutBlob(const HierarchicalModel& model) {
  BinaryWriter w;
  w.WriteVarint(model.vocabulary().size());
  for (const std::string& name : model.vocabulary().names()) w.WriteString(name);
  w.WriteVarint(model.locals().size());
  for (const LocalShotModel& local : model.locals()) {
    w.WriteInt32(local.video_id);
    w.WriteInt32Vector(
        std::vector<int32_t>(local.states.begin(), local.states.end()));
    w.WriteMatrix(local.a1);
    w.WriteDoubleVector(local.pi1);
  }
  w.WriteMatrix(model.b1());
  w.WriteDoubleVector(model.feature_minima());
  w.WriteDoubleVector(model.feature_maxima());
  w.WriteMatrix(model.a2().ToDense());
  w.WriteMatrix(model.b2());
  w.WriteDoubleVector(model.pi2());
  w.WriteMatrix(model.p12());
  w.WriteMatrix(model.b1_prime());
  return WrapChecksummed(kModelMagic, 1, w.buffer());
}

TEST(VideoAffinityTest, ModelBlobKeepsTheDenseLayoutAndCompressesOnRead) {
  const VideoCatalog catalog = testing::GeneratedSoccerCatalog(4, 7);
  auto model = ModelBuilder(catalog).Build();
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_TRUE(
      OfflineLearner().ApplyVideoPatterns(*model, {{{1, 5}, 2.0}}).ok());
  const std::string blob = model->Serialize();
  EXPECT_EQ(blob, DenseLayoutBlob(*model));

  auto restored = HierarchicalModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(SameBits(restored->a2().ToDense(), model->a2().ToDense()));
  for (size_t r = 0; r < model->num_videos(); ++r) {
    EXPECT_EQ(restored->a2().IsUniform(r), r != 1 && r != 5) << "row " << r;
  }
  EXPECT_EQ(restored->Serialize(), blob);
}

class A2IdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 28 videos: the shards' uniform widths (14 and 7) are ones where
    // adding 1/28 width times differs from width * (1/28), so the
    // identity checks see the column-order sum.
    catalog_ = testing::GeneratedSoccerCatalog(/*seed=*/12, /*num_videos=*/28);
    auto model = ModelBuilder(catalog_).Build();
    ASSERT_TRUE(model.ok()) << model.status();
    built_ = std::move(model).value();
    trained_ = built_;
    ASSERT_TRUE(OfflineLearner()
                    .ApplyVideoPatterns(trained_, {{{0, 4}, 1.0}, {{7, 3}, 2.0}})
                    .ok());
  }

  VideoCatalog catalog_;
  HierarchicalModel built_;
  HierarchicalModel trained_;
};

TEST_F(A2IdentityTest, SlicesMatchTheDenseSliceAtTwoAndFourShards) {
  for (const HierarchicalModel* full : {&built_, &trained_}) {
    const Matrix dense = full->a2().ToDense();
    for (int shards : {2, 4}) {
      auto parts = PartitionForServing(catalog_, *full, shards);
      ASSERT_TRUE(parts.ok()) << parts.status();
      for (const CatalogShard& shard : *parts) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " begin " +
                     std::to_string(shard.video_begin));
        const auto begin = static_cast<size_t>(shard.video_begin);
        const size_t n = shard.model.num_videos();
        EXPECT_TRUE(SameBits(shard.model.a2().ToDense(),
                             testing::DenseSliceA2(dense, begin, n)));
        std::vector<double> pi2(full->pi2().begin() + static_cast<long>(begin),
                                full->pi2().begin() +
                                    static_cast<long>(begin + n));
        double sum = 0.0;
        for (double p : pi2) sum += p;
        for (double& p : pi2) {
          p = sum > 0.0 ? p / sum : 1.0 / static_cast<double>(n);
        }
        EXPECT_TRUE(SameBits(shard.model.pi2(), pi2));
        // Compact: a uniform row of the full model slices to a uniform row.
        for (size_t r = 0; r < n; ++r) {
          EXPECT_EQ(shard.model.a2().IsUniform(r),
                    full->a2().IsUniform(begin + r))
              << "row " << r;
        }
      }
    }
  }
}

TEST_F(A2IdentityTest, ReplaceCatalogWithOneAppendedVideoMatchesTheDenseRebuild) {
  auto db = VideoDatabase::Create(VideoCatalog(catalog_));
  ASSERT_TRUE(db.ok()) << db.status();
  auto results = db->Query("free_kick ; goal");
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_FALSE(results->empty());
  ASSERT_TRUE(db->MarkPositive(results->front()).ok());
  ASSERT_TRUE(db->Train().ok());
  const HierarchicalModel old_model = db->model();

  VideoCatalog grown = catalog_;
  const VideoId added = grown.AddVideo("appended");
  ASSERT_TRUE(grown
                  .AddShot(added, 0.0, 3.0, {0},
                           testing::FeatureVector(grown.num_features(), 0.1,
                                                  {0}, 0.9))
                  .ok());
  ASSERT_TRUE(db->ReplaceCatalog(std::move(grown)).ok());

  const size_t m = db->model().num_videos();
  ASSERT_EQ(m, old_model.num_videos() + 1);
  EXPECT_TRUE(SameBits(db->model().a2().ToDense(),
                       testing::DenseRebuildA2(old_model.a2().ToDense(), m)));
  std::vector<double> pi2(m);
  double total = 0.0;
  for (size_t v = 0; v < m; ++v) {
    pi2[v] = v < m - 1 ? old_model.pi2()[v] : 1.0 / static_cast<double>(m);
    total += pi2[v];
  }
  for (double& p : pi2) p /= total;
  EXPECT_TRUE(SameBits(db->model().pi2(), pi2));
  // Compact: untrained old rows and the new row are still uniform.
  for (size_t r = 0; r < m; ++r) {
    EXPECT_EQ(db->model().a2().IsUniform(r),
              r == m - 1 || old_model.a2().IsUniform(r))
        << "row " << r;
  }
}

}  // namespace
}  // namespace hmmm
