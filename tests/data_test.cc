// Tests for src/data: schema validation, dataset append rules, view
// algebra (union, holdout split), and CSV round-tripping.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "data/sanitize.h"
#include "data/dataset.h"
#include "data/dataset_view.h"
#include "data/io.h"
#include "data/schema.h"
#include "streams/intrusion.h"

namespace hom {
namespace {

SchemaPtr MixedSchema() {
  return Schema::Make(
             {Attribute::Numeric("x"),
              Attribute::Categorical("color", {"red", "green", "blue"})},
             {"no", "yes"})
      .ValueOrDie();
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, MakeValidatesAttributeCount) {
  auto r = Schema::Make({}, {"a", "b"});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, MakeValidatesClassCount) {
  auto r = Schema::Make({Attribute::Numeric("x")}, {"only"});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, MakeRejectsDegenerateCategorical) {
  auto r = Schema::Make({Attribute::Categorical("c", {"solo"})}, {"a", "b"});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, MakeRejectsDuplicateAttributeNames) {
  auto r = Schema::Make({Attribute::Numeric("x"), Attribute::Numeric("x")},
                        {"a", "b"});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, MakeRejectsDuplicateClassNames) {
  auto r = Schema::Make({Attribute::Numeric("x")}, {"a", "a"});
  EXPECT_FALSE(r.ok());
}

TEST(SchemaTest, AccessorsAndLookup) {
  SchemaPtr schema = MixedSchema();
  EXPECT_EQ(schema->num_attributes(), 2u);
  EXPECT_EQ(schema->num_classes(), 2u);
  EXPECT_TRUE(schema->attribute(0).is_numeric());
  EXPECT_TRUE(schema->attribute(1).is_categorical());
  EXPECT_EQ(schema->attribute(1).cardinality(), 3u);
  EXPECT_EQ(schema->class_name(1), "yes");
  EXPECT_EQ(*schema->ClassIndex("no"), 0);
  EXPECT_FALSE(schema->ClassIndex("maybe").ok());
  EXPECT_EQ(*schema->AttributeIndex("color"), 1u);
  EXPECT_FALSE(schema->AttributeIndex("shape").ok());
}

TEST(SchemaTest, ToStringSummarizes) {
  EXPECT_EQ(MixedSchema()->ToString(),
            "2 attrs (1 numeric, 1 categorical), 2 classes");
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, AppendValidatesArity) {
  Dataset d(MixedSchema());
  EXPECT_FALSE(d.Append(Record({1.0}, 0)).ok());
  EXPECT_TRUE(d.Append(Record({1.0, 2.0}, 0)).ok());
  EXPECT_EQ(d.size(), 1u);
}

TEST(DatasetTest, AppendValidatesCategoricalRange) {
  Dataset d(MixedSchema());
  EXPECT_FALSE(d.Append(Record({1.0, 3.0}, 0)).ok());   // color code 3
  EXPECT_FALSE(d.Append(Record({1.0, -1.0}, 0)).ok());  // color code -1
  EXPECT_TRUE(d.Append(Record({1.0, 2.0}, 1)).ok());
}

TEST(DatasetTest, AppendValidatesLabel) {
  Dataset d(MixedSchema());
  EXPECT_FALSE(d.Append(Record({0.0, 0.0}, 2)).ok());
  EXPECT_TRUE(d.Append(Record({0.0, 0.0}, kUnlabeled)).ok());
  EXPECT_FALSE(d.record(0).is_labeled());
}

TEST(DatasetTest, ClassCountsSkipUnlabeled) {
  Dataset d(MixedSchema());
  ASSERT_TRUE(d.Append(Record({0, 0}, 0)).ok());
  ASSERT_TRUE(d.Append(Record({0, 0}, 1)).ok());
  ASSERT_TRUE(d.Append(Record({0, 0}, 1)).ok());
  ASSERT_TRUE(d.Append(Record({0, 0}, kUnlabeled)).ok());
  std::vector<size_t> counts = d.ClassCounts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

// ----------------------------------------------------------- DatasetView

Dataset SmallDataset(size_t n) {
  Dataset d(MixedSchema());
  for (size_t i = 0; i < n; ++i) {
    d.AppendUnchecked(Record({static_cast<double>(i), 0.0},
                             static_cast<Label>(i % 2)));
  }
  return d;
}

TEST(DatasetViewTest, WholeDatasetView) {
  Dataset d = SmallDataset(5);
  DatasetView v(&d);
  EXPECT_EQ(v.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(v.record(i).values[0], static_cast<double>(i));
    EXPECT_EQ(v.row_index(i), i);
  }
}

TEST(DatasetViewTest, RangeView) {
  Dataset d = SmallDataset(10);
  DatasetView v(&d, 3, 7);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.record(0).values[0], 3.0);
  EXPECT_EQ(v.record(3).values[0], 6.0);
}

TEST(DatasetViewTest, UnionConcatenatesInOrder) {
  Dataset d = SmallDataset(10);
  DatasetView a(&d, 0, 3);
  DatasetView b(&d, 5, 8);
  DatasetView u = DatasetView::Union(a, b);
  ASSERT_EQ(u.size(), 6u);
  EXPECT_EQ(u.record(0).values[0], 0.0);
  EXPECT_EQ(u.record(3).values[0], 5.0);
}

TEST(DatasetViewTest, HoldoutSplitPartitionsExactly) {
  Dataset d = SmallDataset(11);
  DatasetView v(&d);
  Rng rng(4);
  auto [train, test] = v.SplitHoldout(&rng);
  // ceil/floor halves.
  EXPECT_EQ(train.size(), 6u);
  EXPECT_EQ(test.size(), 5u);
  std::set<uint32_t> all;
  for (size_t i = 0; i < train.size(); ++i) all.insert(train.row_index(i));
  for (size_t i = 0; i < test.size(); ++i) all.insert(test.row_index(i));
  EXPECT_EQ(all.size(), 11u);  // disjoint and covering
}

TEST(DatasetViewTest, HoldoutSplitOfTwoRecordsIsOneOne) {
  Dataset d = SmallDataset(2);
  DatasetView v(&d);
  Rng rng(1);
  auto [train, test] = v.SplitHoldout(&rng);
  EXPECT_EQ(train.size(), 1u);
  EXPECT_EQ(test.size(), 1u);
}

TEST(DatasetViewTest, HoldoutSplitIsSeedDeterministic) {
  Dataset d = SmallDataset(20);
  DatasetView v(&d);
  Rng r1(9), r2(9);
  auto [t1, s1] = v.SplitHoldout(&r1);
  auto [t2, s2] = v.SplitHoldout(&r2);
  EXPECT_EQ(t1.indices(), t2.indices());
  EXPECT_EQ(s1.indices(), s2.indices());
}

TEST(DatasetViewTest, MajorityClassAndCounts) {
  Dataset d(MixedSchema());
  d.AppendUnchecked(Record({0, 0}, 1));
  d.AppendUnchecked(Record({0, 0}, 1));
  d.AppendUnchecked(Record({0, 0}, 0));
  DatasetView v(&d);
  EXPECT_EQ(v.MajorityClass(), 1);
  EXPECT_EQ(v.ClassCounts()[1], 2u);
}

TEST(DatasetViewTest, EmptyViewBasics) {
  Dataset d = SmallDataset(3);
  DatasetView v(&d, 1, 1);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.MajorityClass(), 0);
}

// -------------------------------------------------------------------- IO

TEST(IoTest, CsvRoundTrip) {
  Dataset d(MixedSchema());
  d.AppendUnchecked(Record({1.5, 0.0}, 0));
  d.AppendUnchecked(Record({-2.25, 2.0}, 1));
  d.AppendUnchecked(Record({0.0, 1.0}, kUnlabeled));

  std::string path =
      (std::filesystem::temp_directory_path() / "hom_io_test.csv").string();
  ASSERT_TRUE(WriteCsv(d, path).ok());
  auto back = ReadCsv(d.schema(), path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 3u);
  EXPECT_DOUBLE_EQ(back->record(0).values[0], 1.5);
  EXPECT_EQ(back->record(1).category(1), 2);
  EXPECT_EQ(back->record(1).label, 1);
  EXPECT_FALSE(back->record(2).is_labeled());
  std::remove(path.c_str());
}

TEST(IoTest, ReadRejectsUnknownCategory) {
  std::string path =
      (std::filesystem::temp_directory_path() / "hom_io_bad.csv").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("x,color,class\n1.0,purple,no\n", f);
  fclose(f);
  auto r = ReadCsv(MixedSchema(), path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(IoTest, ReadRejectsWrongFieldCount) {
  std::string path =
      (std::filesystem::temp_directory_path() / "hom_io_bad2.csv").string();
  FILE* f = fopen(path.c_str(), "w");
  fputs("x,color,class\n1.0,no\n", f);
  fclose(f);
  auto r = ReadCsv(MixedSchema(), path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileFails) {
  auto r = ReadCsv(MixedSchema(), "/nonexistent/hom.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------- CSV input hardening

std::string WriteTempCsv(const std::string& name, const std::string& body) {
  std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  FILE* f = fopen(path.c_str(), "w");
  fputs(body.c_str(), f);
  fclose(f);
  return path;
}

TEST(IoTest, ErrorsNameFileAndLine) {
  std::string path = WriteTempCsv("hom_io_ctx.csv",
                                  "x,color,class\n"
                                  "1.0,red,yes\n"
                                  "2.0,green\n");  // line 3: ragged
  auto r = ReadCsv(MixedSchema(), path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("hom_io_ctx.csv:3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("expected 3 fields, got 2"),
            std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, CrlfAndTrailingNewlineAccepted) {
  std::string path = WriteTempCsv("hom_io_crlf.csv",
                                  "x,color,class\r\n"
                                  "1.0,red,yes\r\n"
                                  "2.0,blue,no\r\n"
                                  "\n");
  auto r = ReadCsv(MixedSchema(), path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ(r->record(1).values[0], 2.0);
  std::remove(path.c_str());
}

TEST(IoTest, TrailingCommaIsRagged) {
  std::string path = WriteTempCsv("hom_io_comma.csv",
                                  "x,color,class\n"
                                  "1.0,red,yes,\n");
  auto r = ReadCsv(MixedSchema(), path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("expected 3 fields, got 4"),
            std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, SkipPolicyDropsMalformedRowsAndReports) {
  std::string path = WriteTempCsv("hom_io_skip.csv",
                                  "x,color,class\n"
                                  "1.0,red,yes\n"
                                  "oops,red,yes\n"     // non-numeric
                                  "2.0,purple,no\n"    // unknown category
                                  "3.0,?,no\n"         // missing categorical
                                  "4.0,blue,maybe\n"   // unknown label
                                  "5.0,green,no\n");
  CsvReadOptions options;
  options.policy = InputPolicy::kSkip;
  CsvReadReport report;
  auto r = ReadCsv(MixedSchema(), path, options, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);  // only the fully clean rows
  EXPECT_EQ(report.rows_read, 6u);
  EXPECT_EQ(report.rows_kept, 2u);
  EXPECT_EQ(report.rows_skipped, 4u);
  EXPECT_EQ(report.rows_imputed, 0u);
  ASSERT_FALSE(report.sample_errors.empty());
  EXPECT_NE(report.sample_errors[0].find("hom_io_skip.csv:3"),
            std::string::npos)
      << report.sample_errors[0];
  std::remove(path.c_str());
}

TEST(IoTest, ImputePolicyRepairsFromRunningStatistics) {
  std::string path = WriteTempCsv("hom_io_impute.csv",
                                  "x,color,class\n"
                                  "1.0,red,yes\n"
                                  "3.0,red,no\n"
                                  "?,green,no\n"       // missing numeric
                                  "4.0,,yes\n"         // missing categorical
                                  "5.0,blue,maybe\n"); // unknown label
  CsvReadOptions options;
  options.policy = InputPolicy::kImputeMajority;
  CsvReadReport report;
  auto r = ReadCsv(MixedSchema(), path, options, &report);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 5u);
  EXPECT_EQ(report.rows_kept, 5u);
  EXPECT_EQ(report.rows_imputed, 3u);
  EXPECT_GE(report.values_imputed, 3u);
  // Missing numeric -> running mean of the clean rows seen so far
  // (repaired rows never feed the statistics back).
  EXPECT_DOUBLE_EQ(r->record(2).values[0], 2.0);
  // Missing categorical -> majority among clean rows (red, index 0).
  EXPECT_DOUBLE_EQ(r->record(3).values[1], 0.0);
  // Unknown label -> majority class; the yes/no tie resolves to the
  // lowest class index ("no" = 0) so imputation is deterministic.
  EXPECT_EQ(r->record(4).label, 0);
  std::remove(path.c_str());
}

TEST(IoTest, ErrorPolicyStopsAtFirstBadRow) {
  std::string path = WriteTempCsv("hom_io_strict.csv",
                                  "x,color,class\n"
                                  "1.0,red,yes\n"
                                  "inf,red,yes\n");
  CsvReadOptions options;
  options.policy = InputPolicy::kError;
  auto r = ReadCsv(MixedSchema(), path, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("hom_io_strict.csv:3"),
            std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(SanitizeTest, PolicyNamesRoundTrip) {
  for (InputPolicy policy : {InputPolicy::kError, InputPolicy::kSkip,
                             InputPolicy::kImputeMajority}) {
    auto back = InputPolicyFromName(InputPolicyName(policy));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, policy);
  }
  EXPECT_FALSE(InputPolicyFromName("lenient").ok());
}

TEST(SanitizeTest, RepairFixesEveryDefectKind) {
  InputSanitizer sanitizer(MixedSchema());
  Record clean;
  clean.values = {2.0, 1.0};
  clean.label = 1;
  sanitizer.Learn(clean);
  sanitizer.Learn(clean);

  Record dirty;
  dirty.values = {std::numeric_limits<double>::quiet_NaN(), 7.0};
  dirty.label = 12;
  EXPECT_FALSE(sanitizer.IsClean(dirty));
  InputSanitizer::Report report = sanitizer.Repair(&dirty);
  EXPECT_TRUE(report.arity_ok);
  EXPECT_EQ(report.repaired_fields, 2u);
  EXPECT_TRUE(report.label_repaired);
  EXPECT_TRUE(sanitizer.IsClean(dirty));
  EXPECT_DOUBLE_EQ(dirty.values[0], 2.0);
  EXPECT_DOUBLE_EQ(dirty.values[1], 1.0);
  EXPECT_EQ(dirty.label, 1);

  // Wrong arity is not repairable: flagged, left alone.
  Record ragged;
  ragged.values = {1.0};
  InputSanitizer::Report bad = sanitizer.Repair(&ragged);
  EXPECT_FALSE(bad.arity_ok);
}

TEST(SanitizeTest, StateRoundTripsThroughBinaryIo) {
  SchemaPtr schema = MixedSchema();
  InputSanitizer sanitizer(schema);
  Record r;
  r.values = {4.0, 2.0};
  r.label = 0;
  sanitizer.Learn(r);

  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  ASSERT_TRUE(sanitizer.SaveTo(&writer).ok());

  InputSanitizer restored(schema);
  BinaryReader reader(&buffer);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());

  // The restored statistics impute exactly like the original's.
  Record dirty;
  dirty.values = {std::numeric_limits<double>::quiet_NaN(),
                  std::numeric_limits<double>::quiet_NaN()};
  dirty.label = -2;
  restored.Repair(&dirty);
  EXPECT_DOUBLE_EQ(dirty.values[0], 4.0);
  EXPECT_DOUBLE_EQ(dirty.values[1], 2.0);
  EXPECT_EQ(dirty.label, 0);
}

/// InputSanitizer's checks as they read before it flattened the schema:
/// every field goes through Schema::attribute(). The reference the flat
/// versions must agree with, verdict for verdict and byte for byte.
class ReferenceSanitizer {
 public:
  explicit ReferenceSanitizer(SchemaPtr schema) : schema_(std::move(schema)) {
    size_t n = schema_->num_attributes();
    means_.assign(n, 0.0);
    counts_.assign(n, 0);
    category_counts_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Attribute& attr = schema_->attribute(i);
      if (attr.is_categorical()) {
        category_counts_[i].assign(attr.cardinality(), 0);
      }
    }
    label_counts_.assign(schema_->num_classes(), 0);
  }

  bool IsClean(const Record& r) const {
    if (r.values.size() != schema_->num_attributes()) return false;
    for (size_t i = 0; i < r.values.size(); ++i) {
      const Attribute& attr = schema_->attribute(i);
      double v = r.values[i];
      if (attr.is_categorical()) {
        if (!CategoricalOk(v, attr.cardinality())) return false;
      } else if (!std::isfinite(v)) {
        return false;
      }
    }
    if (r.label != kUnlabeled &&
        (r.label < 0 ||
         static_cast<size_t>(r.label) >= schema_->num_classes())) {
      return false;
    }
    return true;
  }

  void Learn(const Record& r) {
    for (size_t i = 0; i < r.values.size(); ++i) {
      const Attribute& attr = schema_->attribute(i);
      if (attr.is_categorical()) {
        ++category_counts_[i][static_cast<size_t>(r.values[i])];
      } else {
        ++counts_[i];
        means_[i] +=
            (r.values[i] - means_[i]) / static_cast<double>(counts_[i]);
      }
    }
    if (r.is_labeled()) ++label_counts_[static_cast<size_t>(r.label)];
  }

  InputSanitizer::Report Repair(Record* r) const {
    InputSanitizer::Report report;
    if (r->values.size() != schema_->num_attributes()) {
      report.arity_ok = false;
      return report;
    }
    for (size_t i = 0; i < r->values.size(); ++i) {
      const Attribute& attr = schema_->attribute(i);
      double v = r->values[i];
      if (attr.is_categorical()) {
        if (!CategoricalOk(v, attr.cardinality())) {
          r->values[i] =
              static_cast<double>(MajorityIndex(category_counts_[i]));
          ++report.repaired_fields;
        }
      } else if (!std::isfinite(v)) {
        r->values[i] = means_[i];
        ++report.repaired_fields;
      }
    }
    if (r->label != kUnlabeled &&
        (r->label < 0 ||
         static_cast<size_t>(r->label) >= schema_->num_classes())) {
      r->label = static_cast<Label>(MajorityIndex(label_counts_));
      report.label_repaired = true;
    }
    return report;
  }

  /// The bytes InputSanitizer::SaveTo writes for the same statistics.
  std::string Bytes() const {
    std::stringstream out;
    BinaryWriter writer(&out);
    auto write_counts = [&writer](const std::vector<uint64_t>& v) {
      EXPECT_TRUE(writer.WriteU32(static_cast<uint32_t>(v.size())).ok());
      for (uint64_t x : v) EXPECT_TRUE(writer.WriteU64(x).ok());
    };
    EXPECT_TRUE(writer.WriteDoubleVector(means_).ok());
    write_counts(counts_);
    for (const std::vector<uint64_t>& counts : category_counts_) {
      write_counts(counts);
    }
    write_counts(label_counts_);
    return out.str();
  }

 private:
  static bool CategoricalOk(double v, size_t cardinality) {
    return std::isfinite(v) && v >= 0.0 &&
           v < static_cast<double>(cardinality) && v == std::floor(v);
  }

  static size_t MajorityIndex(const std::vector<uint64_t>& counts) {
    return static_cast<size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  }

  SchemaPtr schema_;
  std::vector<double> means_;
  std::vector<uint64_t> counts_;
  std::vector<std::vector<uint64_t>> category_counts_;
  std::vector<uint64_t> label_counts_;
};

std::string SavedBytes(const InputSanitizer& sanitizer) {
  std::stringstream out;
  BinaryWriter writer(&out);
  EXPECT_TRUE(sanitizer.SaveTo(&writer).ok());
  return out.str();
}

/// Corrupts one Intrusion record the way malformed serving input does.
void Corrupt(const Schema& schema, Rng* rng, Record* r) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<size_t> numeric, categorical;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    (schema.attribute(i).is_categorical() ? categorical : numeric)
        .push_back(i);
  }
  size_t num = numeric[rng->NextBounded(static_cast<uint32_t>(numeric.size()))];
  size_t cat =
      categorical[rng->NextBounded(static_cast<uint32_t>(categorical.size()))];
  double cardinality =
      static_cast<double>(schema.attribute(cat).cardinality());
  switch (rng->NextBounded(14)) {
    case 0: r->values[num] = kNaN; break;
    case 1: r->values[num] = kInf; break;
    case 2: r->values[num] = -kInf; break;
    case 3: r->values[num] = -r->values[num] - 1.0; break;  // still clean
    case 4: r->values[cat] = kNaN; break;
    case 5: r->values[cat] = rng->NextBernoulli(0.5) ? kInf : -kInf; break;
    case 6: r->values[cat] = -1.0; break;
    case 7: r->values[cat] = 0.5; break;
    case 8: r->values[cat] = cardinality; break;
    case 9: r->values[cat] = cardinality - 0.25; break;
    case 10: r->label = rng->NextBernoulli(0.5) ? -2 : 99; break;
    case 11: r->label = kUnlabeled; break;  // clean: labels may be hidden
    case 12: r->values.push_back(0.0); break;
    default: r->values.pop_back(); break;
  }
}

TEST(SanitizeTest, FlatChecksMatchThePerAttributeReference) {
  SchemaPtr schema = IntrusionGenerator::MakeSchema();
  IntrusionGenerator gen(5);
  Rng rng(17);
  InputSanitizer flat(schema);
  ReferenceSanitizer reference(schema);
  size_t clean = 0, dirty = 0;
  for (int t = 0; t < 6000; ++t) {
    if (t % 500 == 0) {
      ASSERT_EQ(SavedBytes(flat), reference.Bytes()) << "record " << t;
    }
    Record r = gen.Next();
    if (rng.NextBernoulli(0.4)) Corrupt(*schema, &rng, &r);
    bool is_clean = reference.IsClean(r);
    ASSERT_EQ(flat.IsClean(r), is_clean) << "record " << t;
    if (is_clean) {
      ++clean;
      flat.Learn(r);
      reference.Learn(r);
      continue;
    }
    ++dirty;
    Record a = r;
    Record b = r;
    InputSanitizer::Report got = flat.Repair(&a);
    InputSanitizer::Report want = reference.Repair(&b);
    EXPECT_EQ(got.arity_ok, want.arity_ok);
    EXPECT_EQ(got.repaired_fields, want.repaired_fields);
    EXPECT_EQ(got.label_repaired, want.label_repaired);
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.values.size(), b.values.size());
    EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                          a.values.size() * sizeof(double)),
              0)
        << "record " << t;
  }
  EXPECT_GT(clean, 1000u);
  EXPECT_GT(dirty, 1000u);
  EXPECT_EQ(SavedBytes(flat), reference.Bytes());
}

}  // namespace
}  // namespace hom
