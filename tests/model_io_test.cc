#include <gtest/gtest.h>

#include "core/mmm.h"
#include "core/model_builder.h"
#include "test_util.h"

namespace hmmm {
namespace {

HierarchicalModel BuildModel() {
  auto model = ModelBuilder(testing::SmallSoccerCatalog()).Build();
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

TEST(MmmTest, ValidateAcceptsConsistentModel) {
  Mmm mmm;
  mmm.a = *Matrix::FromRows({{0.5, 0.5}, {0.0, 1.0}});
  mmm.b = Matrix(2, 3, 0.1);
  mmm.pi = {0.3, 0.7};
  EXPECT_TRUE(mmm.Validate().ok());
}

TEST(MmmTest, ValidateRejectsShapeMismatch) {
  Mmm mmm;
  mmm.a = Matrix(2, 3);
  mmm.b = Matrix(2, 1);
  mmm.pi = {0.5, 0.5};
  EXPECT_FALSE(mmm.Validate().ok());
}

TEST(MmmTest, ValidateRejectsNonStochasticA) {
  Mmm mmm;
  mmm.a = *Matrix::FromRows({{0.5, 0.6}, {0.0, 1.0}});
  mmm.b = Matrix(2, 1);
  mmm.pi = {0.5, 0.5};
  EXPECT_FALSE(mmm.Validate().ok());
}

TEST(MmmTest, ValidateRejectsBadPi) {
  Mmm mmm;
  mmm.a = Matrix::Identity(2);
  mmm.b = Matrix(2, 1);
  mmm.pi = {0.5, 0.1};
  EXPECT_FALSE(mmm.Validate().ok());
}

TEST(MmmTest, UniformDistribution) {
  EXPECT_EQ(UniformDistribution(0).size(), 0u);
  const auto pi = UniformDistribution(4);
  for (double p : pi) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(ModelIoTest, SerializeDeserializeRoundTrip) {
  const HierarchicalModel original = BuildModel();
  const std::string blob = original.Serialize();
  auto restored = HierarchicalModel::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->num_videos(), original.num_videos());
  EXPECT_EQ(restored->num_global_states(), original.num_global_states());
  EXPECT_EQ(restored->vocabulary().names(), original.vocabulary().names());
  EXPECT_LT(restored->b1().MaxAbsDiff(original.b1()), 1e-15);
  EXPECT_LT(restored->a2().ToDense().MaxAbsDiff(original.a2().ToDense()), 1e-15);
  EXPECT_LT(restored->b2().MaxAbsDiff(original.b2()), 1e-15);
  EXPECT_LT(restored->p12().MaxAbsDiff(original.p12()), 1e-15);
  EXPECT_LT(restored->b1_prime().MaxAbsDiff(original.b1_prime()), 1e-15);
  EXPECT_EQ(restored->pi2(), original.pi2());
  for (size_t v = 0; v < original.num_videos(); ++v) {
    EXPECT_EQ(restored->local(static_cast<VideoId>(v)).states,
              original.local(static_cast<VideoId>(v)).states);
    EXPECT_LT(restored->local(static_cast<VideoId>(v))
                  .a1.MaxAbsDiff(original.local(static_cast<VideoId>(v)).a1),
              1e-15);
  }
  EXPECT_TRUE(restored->Validate().ok());
}

TEST(ModelIoTest, StateMappingRebuiltAfterLoad) {
  const HierarchicalModel original = BuildModel();
  auto restored = HierarchicalModel::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok());
  for (size_t s = 0; s < original.num_global_states(); ++s) {
    EXPECT_EQ(restored->ShotOfGlobalState(static_cast<int>(s)),
              original.ShotOfGlobalState(static_cast<int>(s)));
  }
}

TEST(ModelIoTest, CorruptionRejected) {
  std::string blob = BuildModel().Serialize();
  blob[blob.size() / 2] ^= 0x10;
  EXPECT_EQ(HierarchicalModel::Deserialize(blob).status().code(),
            StatusCode::kDataLoss);
}

TEST(ModelIoTest, TrailingGarbageRejected) {
  // Valid envelope around payload-with-garbage is caught by the reader.
  const HierarchicalModel model = BuildModel();
  std::string blob = model.Serialize();
  blob += "extra";
  EXPECT_FALSE(HierarchicalModel::Deserialize(blob).ok());
}

TEST(ModelIoTest, FileRoundTrip) {
  const HierarchicalModel model = BuildModel();
  const std::string path = testing::TempPath("hmmm_model_io_test.hmmm");
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto restored = HierarchicalModel::LoadFromFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_global_states(), model.num_global_states());
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(HierarchicalModel::LoadFromFile("/no/such/model.hmmm")
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace hmmm
