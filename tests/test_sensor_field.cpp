#include "world/sensor_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace dde::world {
namespace {

struct Fixture {
  GridMap map{6, 6};
  ViabilityProcess truth;
  Rng rng{11};

  explicit Fixture(double p = 0.7)
      : truth(std::vector<SegmentDynamics>(map.segment_count(),
                                           SegmentDynamics{p, SimTime::seconds(600)}),
              Rng(99)) {}
};

SensorFieldConfig small_config() {
  SensorFieldConfig c;
  c.sensor_count = 12;
  c.coverage_radius = 1.0;
  c.fast_ratio = 0.5;
  return c;
}

TEST(SensorField, DeploysRequestedCount) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  EXPECT_EQ(field.sensors().size(), 12u);
}

TEST(SensorField, EverySensorCoversSomething) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_FALSE(s.covers.empty());
    // Footprint geometry: covered segments near the sensor position.
    for (SegmentId seg : s.covers) {
      const auto& segment = f.map.segment(seg);
      EXPECT_LE(std::abs(segment.mid_x() - s.x), 1.0 + 1e-9);
      EXPECT_LE(std::abs(segment.mid_y() - s.y), 1.0 + 1e-9);
    }
  }
}

TEST(SensorField, ObjectSizesWithinRange) {
  Fixture f;
  auto cfg = small_config();
  cfg.min_object_bytes = 1000;
  cfg.max_object_bytes = 2000;
  SensorField field(f.map, f.truth, cfg, f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_GE(s.object_bytes, 1000u);
    EXPECT_LE(s.object_bytes, 2000u);
  }
}

TEST(SensorField, FastRatioRespected) {
  Fixture f;
  auto cfg = small_config();
  cfg.fast_ratio = 0.25;
  cfg.sensor_count = 20;
  SensorField field(f.map, f.truth, cfg, f.rng);
  const auto fast = std::count_if(
      field.sensors().begin(), field.sensors().end(),
      [](const SensorInfo& s) { return s.rate == ChangeRate::kFast; });
  EXPECT_EQ(fast, 5);
}

TEST(SensorField, ValidityMatchesCategory) {
  Fixture f;
  auto cfg = small_config();
  cfg.slow_validity = SimTime::seconds(500);
  cfg.fast_validity = SimTime::seconds(20);
  SensorField field(f.map, f.truth, cfg, f.rng);
  for (const auto& s : field.sensors()) {
    EXPECT_EQ(s.validity, s.rate == ChangeRate::kFast ? SimTime::seconds(20)
                                                      : SimTime::seconds(500));
  }
}

TEST(SensorField, SensorsCoveringInvertsCoverage) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  for (const auto& s : field.sensors()) {
    for (SegmentId seg : s.covers) {
      const auto covering = field.sensors_covering(seg);
      EXPECT_NE(std::find(covering.begin(), covering.end(), s.id),
                covering.end());
    }
  }
}

TEST(SensorField, CoveredSegmentsIsSortedUnion) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const auto covered = field.covered_segments();
  EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
  EXPECT_EQ(std::adjacent_find(covered.begin(), covered.end()), covered.end());
  for (SegmentId seg : covered) {
    EXPECT_FALSE(field.sensors_covering(seg).empty());
  }
}

TEST(SensorField, SampleMatchesGroundTruth) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const SimTime t = SimTime::seconds(123);
  for (const auto& s : field.sensors()) {
    const EvidenceObject obj = field.sample(s.id, t);
    EXPECT_EQ(obj.source, s.id);
    EXPECT_EQ(obj.captured_at, t);
    EXPECT_EQ(obj.validity, s.validity);
    EXPECT_EQ(obj.bytes, s.object_bytes);
    std::vector<SegmentId> covers = s.covers;
    std::sort(covers.begin(), covers.end());
    ASSERT_EQ(obj.readings.size(), covers.size());
    for (std::size_t i = 0; i < covers.size(); ++i) {
      EXPECT_EQ(obj.readings[i].first, covers[i]);
      EXPECT_EQ(obj.readings[i].second, f.truth.viable_at(covers[i], t));
    }
  }
}

TEST(SensorField, ReadingsSortedUniqueFirstDrawKept) {
  // One sensor whose field of view is listed unsorted and names segment 5
  // twice, against a reference field with one sensor per listed segment:
  // both draw noise from the same stream in the same order, so the
  // reference's per-sensor samples are the per-reading draws.
  Fixture f;
  auto make = [](std::uint64_t id, std::vector<SegmentId> covers) {
    SensorInfo s;
    s.id = SourceId{id};
    s.covers = std::move(covers);
    s.object_bytes = 100;
    s.validity = SimTime::seconds(10);
    s.reliability = 0.5;
    return s;
  };
  const std::vector<SegmentId> listed{SegmentId{5}, SegmentId{2},
                                      SegmentId{5}, SegmentId{0}};
  SensorField dup(f.map, f.truth, {make(0, listed)});
  std::vector<SensorInfo> singles;
  for (std::size_t i = 0; i < listed.size(); ++i) {
    singles.push_back(make(i, {listed[i]}));
  }
  SensorField ref(f.map, f.truth, singles);

  int repeat_disagreed = 0;
  for (int k = 0; k < 64; ++k) {
    const SimTime t = SimTime::seconds(k);
    const EvidenceObject obj = dup.sample(SourceId{0}, t);
    std::vector<bool> draws;
    for (std::size_t i = 0; i < listed.size(); ++i) {
      draws.push_back(ref.sample(SourceId{i}, t).readings.front().second);
    }
    ASSERT_EQ(obj.readings.size(), 3u);
    EXPECT_EQ(obj.readings[0].first, SegmentId{0});
    EXPECT_EQ(obj.readings[0].second, draws[3]);
    EXPECT_EQ(obj.readings[1].first, SegmentId{2});
    EXPECT_EQ(obj.readings[1].second, draws[1]);
    EXPECT_EQ(obj.readings[2].first, SegmentId{5});
    EXPECT_EQ(obj.readings[2].second, draws[0]) << "first reading kept";
    if (draws[0] != draws[2]) ++repeat_disagreed;
  }
  EXPECT_GT(repeat_disagreed, 0) << "the two draws for segment 5 never "
                                    "differed, so keep-first went untested";
}

TEST(SensorField, SampleIdsAreUniqueAndCounted) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  const auto a = field.sample(SourceId{0}, SimTime::seconds(1));
  const auto b = field.sample(SourceId{0}, SimTime::seconds(2));
  const auto c = field.sample(SourceId{1}, SimTime::seconds(2));
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(b.id, c.id);
  EXPECT_EQ(field.total_samples(), 3u);
}

TEST(SensorField, FreshnessWindow) {
  Fixture f;
  auto cfg = small_config();
  cfg.fast_ratio = 0.0;
  cfg.slow_validity = SimTime::seconds(100);
  SensorField field(f.map, f.truth, cfg, f.rng);
  const auto obj = field.sample(SourceId{0}, SimTime::seconds(50));
  EXPECT_TRUE(obj.fresh_at(SimTime::seconds(50)));
  EXPECT_TRUE(obj.fresh_at(SimTime::seconds(149)));
  EXPECT_FALSE(obj.fresh_at(SimTime::seconds(150)));
  EXPECT_EQ(obj.expires_at(), SimTime::seconds(150));
}

TEST(SensorField, ThrowsOnUnknownSensor) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  EXPECT_THROW((void)field.sensor(SourceId{999}), std::out_of_range);
  EXPECT_THROW((void)field.sample(SourceId{999}, SimTime::zero()),
               std::out_of_range);
}

TEST(SensorField, NamesAreUniqueHierarchical) {
  Fixture f;
  SensorField field(f.map, f.truth, small_config(), f.rng);
  std::set<std::string> names;
  for (const auto& s : field.sensors()) {
    EXPECT_GE(s.name.size(), 3u);
    EXPECT_TRUE(names.insert(s.name.to_string()).second);
  }
}

}  // namespace
}  // namespace dde::world
