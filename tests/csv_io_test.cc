// Differential test of CSV ingest and output (src/data/io.cc). The
// Reference* functions below are the reader and writer io.cc had before its
// block reader, kept verbatim: a getline reader that splits every line into
// strings and parses numerics with std::stod, and an ostream writer. The
// block reader with std::from_chars fields and the std::to_chars writer
// must reproduce them exactly: the same Status text, the same records bit
// for bit, the same CsvReadReport and sample messages under every input
// policy, and the same written bytes. The corpus is every generator's
// output plus seeded mutations of it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/sanitize.h"
#include "fault/fault_injector.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace hom {
namespace {

// ------------------------------------------------------------ reference

std::vector<std::string> ReferenceSplitLine(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

std::string ReferenceRowContext(const std::string& path, size_t line_no) {
  return path + ":" + std::to_string(line_no) + ": ";
}

Status ReferenceWriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const Schema& schema = *dataset.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    out << schema.attribute(i).name << ",";
  }
  out << "class\n";
  for (const Record& r : dataset.records()) {
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const Attribute& attr = schema.attribute(i);
      if (attr.is_categorical()) {
        out << attr.categories[static_cast<size_t>(r.category(i))];
      } else {
        out << r.values[i];
      }
      out << ",";
    }
    if (r.is_labeled()) {
      out << schema.class_name(r.label);
    } else {
      out << "?";
    }
    out << "\n";
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Dataset> ReferenceReadCsv(SchemaPtr schema, const std::string& path,
                                 const CsvReadOptions& options,
                                 CsvReadReport* report) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  Dataset dataset(schema);
  InputSanitizer sanitizer(schema);
  CsvReadReport local_report;
  CsvReadReport* rep = report != nullptr ? report : &local_report;
  *rep = CsvReadReport{};

  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("'" + path + "' is empty (missing header)");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    if (line.empty()) continue;  // blank/trailing-newline lines
    ++rep->rows_read;

    std::vector<std::string> fields = ReferenceSplitLine(line);
    std::string row_error;
    bool repairable = true;
    Record record;
    if (fields.size() != schema->num_attributes() + 1) {
      row_error = ReferenceRowContext(path, line_no) + "expected " +
                  std::to_string(schema->num_attributes() + 1) +
                  " fields, got " + std::to_string(fields.size());
      repairable = false;
    } else {
      record.values.reserve(schema->num_attributes());
      for (size_t i = 0; i < schema->num_attributes(); ++i) {
        const Attribute& attr = schema->attribute(i);
        const std::string& field = fields[i];
        double value = std::nan("");
        if (field.empty() || field == "?") {
          if (row_error.empty()) {
            row_error = ReferenceRowContext(path, line_no) +
                        "missing value for attribute '" + attr.name + "'";
          }
        } else if (attr.is_categorical()) {
          int code = -1;
          for (size_t c = 0; c < attr.categories.size(); ++c) {
            if (attr.categories[c] == field) {
              code = static_cast<int>(c);
              break;
            }
          }
          if (code >= 0) {
            value = code;
          } else if (row_error.empty()) {
            row_error = ReferenceRowContext(path, line_no) +
                        "unknown category '" + field + "' for attribute '" +
                        attr.name + "'";
          }
        } else {
          size_t parsed = 0;
          bool ok = false;
          double v = 0.0;
          try {
            v = std::stod(field, &parsed);
            ok = parsed == field.size();
          } catch (...) {
            ok = false;
          }
          if (!ok) {
            if (row_error.empty()) {
              row_error = ReferenceRowContext(path, line_no) +
                          "non-numeric value '" + field + "'";
            }
          } else if (!std::isfinite(v)) {
            if (row_error.empty()) {
              row_error = ReferenceRowContext(path, line_no) +
                          "non-finite value '" + field + "'";
            }
          } else {
            value = v;
          }
        }
        record.values.push_back(value);
      }
      const std::string& label_field = fields.back();
      if (label_field == "?") {
        record.label = kUnlabeled;
      } else {
        auto label = schema->ClassIndex(label_field);
        if (label.ok()) {
          record.label = *label;
        } else {
          record.label = -2;
          if (row_error.empty()) {
            row_error = ReferenceRowContext(path, line_no) +
                        "unknown class label '" + label_field + "'";
          }
        }
      }
    }

    if (row_error.empty()) {
      sanitizer.Learn(record);
      HOM_RETURN_NOT_OK(dataset.Append(std::move(record)));
      ++rep->rows_kept;
      continue;
    }
    if (options.policy == InputPolicy::kError) {
      return Status::InvalidArgument(row_error);
    }
    if (rep->sample_errors.size() < options.max_sample_errors) {
      rep->sample_errors.push_back(row_error);
    }
    if (!repairable || options.policy == InputPolicy::kSkip) {
      ++rep->rows_skipped;
      continue;
    }
    InputSanitizer::Report repair = sanitizer.Repair(&record);
    ++rep->rows_imputed;
    rep->values_imputed +=
        repair.repaired_fields + (repair.label_repaired ? 1 : 0);
    HOM_RETURN_NOT_OK(dataset.Append(std::move(record)));
    ++rep->rows_kept;
  }
  return dataset;
}

// ------------------------------------------------------------- harness

constexpr InputPolicy kPolicies[] = {InputPolicy::kError, InputPolicy::kSkip,
                                     InputPolicy::kImputeMajority};

/// A per-process temp path, so parallel test processes never share a file.
std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("hom_csv_io_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadText(const std::string& path) {
  auto text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

std::string ReportDiff(const CsvReadReport& want, const CsvReadReport& got) {
  if (want.rows_read != got.rows_read) return "rows_read";
  if (want.rows_kept != got.rows_kept) return "rows_kept";
  if (want.rows_skipped != got.rows_skipped) return "rows_skipped";
  if (want.rows_imputed != got.rows_imputed) return "rows_imputed";
  if (want.values_imputed != got.values_imputed) return "values_imputed";
  if (want.sample_errors != got.sample_errors) return "sample_errors";
  return "";
}

/// Reads `path` with both readers under `policy`; returns "" when they
/// agree, else what differs first.
std::string DiffReads(const SchemaPtr& schema, const std::string& path,
                      InputPolicy policy) {
  CsvReadOptions options;
  options.policy = policy;
  options.max_sample_errors = size_t{1} << 20;
  CsvReadReport want_report, got_report;
  auto want = ReferenceReadCsv(schema, path, options, &want_report);
  auto got = ReadCsv(schema, path, options, &got_report);
  std::string where = std::string(InputPolicyName(policy)) + ": ";
  if (want.status().ToString() != got.status().ToString()) {
    return where + "status '" + want.status().ToString() + "' vs '" +
           got.status().ToString() + "'";
  }
  if (std::string field = ReportDiff(want_report, got_report);
      !field.empty()) {
    return where + "report." + field;
  }
  if (!want.ok()) return "";
  if (want->size() != got->size()) return where + "record count";
  for (size_t i = 0; i < want->size(); ++i) {
    const Record& a = want->record(i);
    const Record& b = got->record(i);
    if (a.label != b.label) return where + "label of record " + std::to_string(i);
    if (a.values.size() != b.values.size() ||
        std::memcmp(a.values.data(), b.values.data(),
                    a.values.size() * sizeof(double)) != 0) {
      return where + "values of record " + std::to_string(i);
    }
  }
  return "";
}

/// Collects disagreements across many reads and reports the first few.
struct DiffTally {
  size_t cases = 0;
  size_t differences = 0;
  std::vector<std::string> first;

  void Check(const SchemaPtr& schema, const std::string& path,
             const std::string& what) {
    for (InputPolicy policy : kPolicies) {
      ++cases;
      std::string diff = DiffReads(schema, path, policy);
      if (diff.empty()) continue;
      ++differences;
      if (first.size() < 5) first.push_back(what + ": " + diff);
    }
  }
  std::string Describe() const {
    std::string out = std::to_string(differences) + " of " +
                      std::to_string(cases) + " reads differ";
    for (const std::string& line : first) out += "\n  " + line.substr(0, 400);
    return out;
  }
};

/// Every generator, by name.
struct StreamCase {
  const char* name;
  std::unique_ptr<StreamGenerator> (*make)(uint64_t seed);
};

// Prints the name, so the ctest names do not carry pointer bytes.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

const StreamCase kStreams[] = {
    {"stagger",
     [](uint64_t seed) -> std::unique_ptr<StreamGenerator> {
       return std::make_unique<StaggerGenerator>(seed);
     }},
    {"hyperplane",
     [](uint64_t seed) -> std::unique_ptr<StreamGenerator> {
       return std::make_unique<HyperplaneGenerator>(seed);
     }},
    {"intrusion",
     [](uint64_t seed) -> std::unique_ptr<StreamGenerator> {
       return std::make_unique<IntrusionGenerator>(seed);
     }},
    {"sea",
     [](uint64_t seed) -> std::unique_ptr<StreamGenerator> {
       return std::make_unique<SeaGenerator>(seed);
     }},
};

/// `n` records of the stream, every fifth one unlabeled so "?" labels are
/// written and read too.
Dataset StreamData(const StreamCase& stream, uint64_t seed, size_t n) {
  Dataset generated = stream.make(seed)->Generate(n);
  Dataset data(generated.schema());
  for (size_t i = 0; i < generated.size(); ++i) {
    Record r = generated.record(i);
    if (i % 5 == 4) r.label = kUnlabeled;
    data.AppendUnchecked(std::move(r));
  }
  return data;
}

std::string ReferenceText(const Dataset& data, const std::string& path) {
  EXPECT_TRUE(ReferenceWriteCsv(data, path).ok());
  return ReadText(path);
}

// ------------------------------------------------------------ mutation

/// Fields whose verdict differs between std::stod and std::from_chars, or
/// that every reader must reject: the reader gives each stod's verdict.
std::vector<std::string> OddFields() {
  return {"+1.5", " 1.5", "\t2", "\v3", "\f4", "\r5", "0x1A", "-0x1p3",
          "1e-310", "4.9e-324", "2.2250738585072011e-308", "1e-400", "1e400",
          "-1e400", "inf", "-inf", "Infinity", "nan", "-nan", "NAN(12)",
          "1e", "1e+", ".", "-", "+", "", "?", "1.5 ", "1.5x", "--1",
          "0x", "1e300", "-1e300", "1e-300", "9.99e-301", "1.0000001e300",
          "-0", "0e-999", ".5", "5.", "007", "1E5",
          "123456789012345678901234567890.5e-10", "purple", "maybe",
          std::string("1\0" "5", 3), std::string("\0", 1)};
}

/// Byte ranges of the fields of the data lines of `text`.
std::vector<std::pair<size_t, size_t>> DataFieldSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t start = text.find('\n');
  while (start != std::string::npos && start + 1 < text.size()) {
    size_t line = start + 1;
    size_t end = text.find('\n', line);
    if (end == std::string::npos) end = text.size();
    size_t field = line;
    for (size_t i = line; i <= end; ++i) {
      if (i == end || text[i] == ',') {
        spans.emplace_back(field, i - field);
        field = i + 1;
      }
    }
    start = end < text.size() ? end : std::string::npos;
  }
  return spans;
}

size_t Pick(Rng* rng, size_t bound) {
  return rng->NextBounded(static_cast<uint32_t>(bound));
}

/// Applies one seeded text mutation to a CSV.
void MutateText(Rng* rng, std::string* text) {
  static const std::vector<std::string> odd = OddFields();
  switch (rng->NextBounded(8)) {
    case 0: {  // one field replaced by an odd one
      auto spans = DataFieldSpans(*text);
      if (spans.empty()) return;
      auto [at, len] = spans[Pick(rng, spans.size())];
      text->replace(at, len, odd[Pick(rng, odd.size())]);
      return;
    }
    case 1:  // a stray comma
      text->insert(Pick(rng, text->size() + 1), 1, ',');
      return;
    case 2: {  // a comma removed
      std::vector<size_t> commas;
      for (size_t i = 0; i < text->size(); ++i) {
        if ((*text)[i] == ',') commas.push_back(i);
      }
      if (!commas.empty()) text->erase(commas[Pick(rng, commas.size())], 1);
      return;
    }
    case 3:  // a stray carriage return
      text->insert(Pick(rng, text->size() + 1), 1, '\r');
      return;
    case 4: {  // a blank line, LF or CRLF
      size_t nl = text->find('\n', Pick(rng, text->size() + 1));
      if (nl == std::string::npos) return;
      text->insert(nl + 1, rng->NextBernoulli(0.5) ? "\n" : "\r\n");
      return;
    }
    case 5:  // no final newline
      if (!text->empty() && text->back() == '\n') text->pop_back();
      return;
    case 6: {  // CRLF line endings throughout
      std::string crlf;
      for (char c : *text) {
        if (c == '\n') crlf += '\r';
        crlf += c;
      }
      *text = std::move(crlf);
      return;
    }
    default: {  // one to four random bytes overwritten
      if (text->empty()) return;
      size_t n = 1 + Pick(rng, 4);
      for (size_t i = 0; i < n; ++i) {
        (*text)[Pick(rng, text->size())] =
            static_cast<char>(rng->NextBounded(256));
      }
      return;
    }
  }
}

/// Runs `mutations` seeded cases over `base`: one to three text mutations,
/// then, in one case in six, a bit flip or a truncation of the file.
void CheckMutations(const SchemaPtr& schema, const std::string& base,
                    const std::string& path, uint64_t seed, size_t mutations,
                    DiffTally* tally) {
  Rng rng(seed);
  FaultInjector faults(seed + 1);
  for (size_t m = 0; m < mutations; ++m) {
    std::string text = base;
    size_t edits = 1 + Pick(&rng, 3);
    for (size_t e = 0; e < edits; ++e) MutateText(&rng, &text);
    WriteText(path, text);
    std::string what = "mutation " + std::to_string(m);
    switch (rng.NextBounded(12)) {
      case 0:
        if (auto done = faults.BitFlipFile(path); done.ok()) {
          what += ", " + *done;
        }
        break;
      case 1:
        if (auto done = faults.TruncateFile(path); done.ok()) {
          what += ", " + *done;
        }
        break;
      default:
        break;
    }
    tally->Check(schema, path, what);
  }
}

// --------------------------------------------------------------- tests

class CsvIoStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(CsvIoStreamTest, WriterMatchesReference) {
  Dataset data = StreamData(GetParam(), 11, 3000);
  std::string want_path = TempPath("want.csv");
  std::string got_path = TempPath("got.csv");
  ASSERT_TRUE(ReferenceWriteCsv(data, want_path).ok());
  ASSERT_TRUE(WriteCsv(data, got_path).ok());
  std::string want = ReadText(want_path);
  EXPECT_FALSE(want.empty());
  EXPECT_TRUE(want == ReadText(got_path));
  std::remove(want_path.c_str());
  std::remove(got_path.c_str());
}

TEST_P(CsvIoStreamTest, ReaderMatchesReferenceOnSeededMutations) {
  const StreamCase& stream = GetParam();
  Dataset data = StreamData(stream, 21, 30);
  std::string path = TempPath(std::string(stream.name) + ".csv");
  std::string base = ReferenceText(data, path);
  DiffTally tally;
  tally.Check(data.schema(), path, "unmutated");
  CheckMutations(data.schema(), base, path, 1000 + data.size(), 1500, &tally);
  EXPECT_EQ(tally.differences, 0u) << tally.Describe();
  EXPECT_EQ(tally.cases, 3u * 1501u);
  std::remove(path.c_str());
}

TEST_P(CsvIoStreamTest, ReaderMatchesReferenceAcrossBlocks) {
  // Large enough that lines straddle the reader's block boundaries.
  const StreamCase& stream = GetParam();
  std::string path = TempPath(std::string(stream.name) + "_large.csv");
  Dataset data = StreamData(stream, 31, 1000);
  std::string base = ReferenceText(data, path);
  while (base.size() < (size_t{300} << 10)) {
    data = StreamData(stream, 31, 2 * data.size());
    base = ReferenceText(data, path);
  }
  DiffTally tally;
  tally.Check(data.schema(), path, "unmutated");
  CheckMutations(data.schema(), base, path, 77, 8, &tally);
  EXPECT_EQ(tally.differences, 0u) << tally.Describe();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CsvIoStreamTest, ::testing::ValuesIn(kStreams),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::string(info.param.name);
    });

SchemaPtr MixedSchema() {
  return Schema::Make(
             {Attribute::Numeric("x"),
              Attribute::Categorical("color", {"red", "green", "blue"})},
             {"no", "yes"})
      .ValueOrDie();
}

TEST(CsvIoTest, ReaderMatchesReferenceOnEveryOddField) {
  SchemaPtr schema = MixedSchema();
  std::string path = TempPath("odd.csv");
  DiffTally tally;
  for (const std::string& field : OddFields()) {
    WriteText(path, "x,color,class\n1,red,yes\n" + field + ",green,no\n" +
                        "2,blue," + field + "\n3,red,yes\n");
    tally.Check(schema, path, "field '" + field + "'");
  }
  EXPECT_EQ(tally.differences, 0u) << tally.Describe();
  std::remove(path.c_str());
}

TEST(CsvIoTest, NumericFieldsKeepStodsVerdict) {
  // The contract spelled out: what from_chars alone would decide
  // differently keeps the verdict stod gives it.
  SchemaPtr schema = MixedSchema();
  std::string path = TempPath("verdict.csv");
  struct Expectation {
    const char* field;
    double value;         // when accepted
    const char* message;  // when rejected
  };
  const Expectation cases[] = {
      {"+1.5", 1.5, nullptr},
      {" 1.5", 1.5, nullptr},
      {"\t2", 2.0, nullptr},
      {"0x1A", 26.0, nullptr},
      {"-0x1p3", -8.0, nullptr},
      {"1e300", 1e300, nullptr},
      {"1e-300", 1e-300, nullptr},
      {"1e-310", 0.0, "non-numeric value '1e-310'"},
      {"4.9e-324", 0.0, "non-numeric value '4.9e-324'"},
      {"1e-400", 0.0, "non-numeric value '1e-400'"},
      {"1e400", 0.0, "non-numeric value '1e400'"},
      {"inf", 0.0, "non-finite value 'inf'"},
      {"nan", 0.0, "non-finite value 'nan'"},
      {"1.5 ", 0.0, "non-numeric value '1.5 '"},
  };
  for (const Expectation& c : cases) {
    WriteText(path, std::string("x,color,class\n") + c.field + ",red,yes\n");
    auto read = ReadCsv(schema, path);
    if (c.message == nullptr) {
      ASSERT_TRUE(read.ok()) << c.field << ": " << read.status().ToString();
      EXPECT_EQ(read->record(0).values[0], c.value) << c.field;
    } else {
      ASSERT_FALSE(read.ok()) << c.field;
      EXPECT_NE(read.status().message().find(c.message), std::string::npos)
          << read.status().ToString();
    }
  }
  std::remove(path.c_str());
}

TEST(CsvIoTest, ReaderMatchesReferenceOnEdgeFiles) {
  SchemaPtr schema = MixedSchema();
  std::string path = TempPath("edge.csv");
  DiffTally tally;
  const std::string header = "x,color,class";
  const std::pair<const char*, std::string> files[] = {
      {"empty file", ""},
      {"a lone newline", "\n"},
      {"a lone CRLF", "\r\n"},
      {"a header without newline", header},
      {"a header only", header + "\n"},
      {"one row without newline", header + "\n1.5,red,yes"},
      {"blank lines", header + "\n\n1,red,yes\n\r\n\n2,blue,no\n\n"},
      {"a 3 MB number",
       header + "\n1,red,yes\n0." + std::string(3 << 20, '7') +
           ",green,no\n2,blue,yes\n"},
      {"a 3 MB ragged line",
       header + "\n1,red,yes\n" + std::string(3 << 20, ',') + "\n2,blue,no"},
      {"a 3 MB bad category",
       header + "\n1," + std::string(3 << 20, 'r') + ",yes\n2,blue,no\n"},
  };
  for (const auto& [what, text] : files) {
    WriteText(path, text);
    tally.Check(schema, path, what);
  }
  std::filesystem::path dir = TempPath("dir");
  std::filesystem::create_directory(dir);
  tally.Check(schema, dir.string(), "a directory");
  std::filesystem::remove(dir);
  tally.Check(schema, TempPath("missing.csv"), "a missing path");
  EXPECT_EQ(tally.differences, 0u) << tally.Describe();
  std::remove(path.c_str());
}

TEST(CsvIoTest, WriterMatchesReferenceOnSpecialValues) {
  // %.6g corner cases, then random bit patterns and magnitudes.
  SchemaPtr schema = Schema::Make({Attribute::Numeric("v")}, {"a", "b"})
                         .ValueOrDie();
  std::vector<double> values = {
      0.0,
      -0.0,
      1e-5,
      -1e-5,
      999999.5,
      999999.4,
      9999995.0,
      1e21,
      0.1,
      1.0 / 3.0,
      123456.5,
      1e-300,
      DBL_MIN,
      DBL_MIN / 2,
      4.9e-324,
      -4.9e-324,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = (uint64_t{rng.NextUint32()} << 32) | rng.NextUint32();
    double bit_pattern;
    std::memcpy(&bit_pattern, &bits, sizeof(bits));
    values.push_back(bit_pattern);
    values.push_back(rng.NextGaussian() *
                     std::pow(10.0, rng.NextInt(-30, 30)));
  }
  Dataset data(schema);
  for (size_t i = 0; i < values.size(); ++i) {
    data.AppendUnchecked(Record({values[i]}, static_cast<Label>(i % 3) - 1));
  }
  std::string want_path = TempPath("special_want.csv");
  std::string got_path = TempPath("special_got.csv");
  ASSERT_TRUE(ReferenceWriteCsv(data, want_path).ok());
  ASSERT_TRUE(WriteCsv(data, got_path).ok());
  EXPECT_TRUE(ReadText(want_path) == ReadText(got_path));
  std::remove(want_path.c_str());
  std::remove(got_path.c_str());
}

TEST(CsvIoTest, WriterFailsToOpenLikeReference) {
  Dataset data(MixedSchema());
  std::string path = "/nonexistent/hom_csv_io.csv";
  EXPECT_EQ(ReferenceWriteCsv(data, path).ToString(),
            WriteCsv(data, path).ToString());
}

}  // namespace
}  // namespace hom
