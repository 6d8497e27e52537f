#include "data/io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

namespace hom {

namespace {

/// Bytes ReadCsv asks the file for at a time. The block is reused for the
/// whole read and grows only to hold a line longer than itself, so ingest
/// holds one block of the file however large the file is.
constexpr size_t kReadBlockBytes = 64 << 10;

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

/// Yields a file's lines, without their '\n', out of one reused block. A
/// last line without '\n' is still a line. A read error ends the file, as
/// it ends std::getline.
class LineReader {
 public:
  explicit LineReader(std::FILE* file)
      : file_(file), block_(kReadBlockBytes) {}

  /// Points `*line` at the next line, valid until the next call. False
  /// once the file is exhausted.
  bool Next(std::string_view* line) {
    size_t scanned = begin_;  // block_[begin_, scanned) holds no '\n'
    while (true) {
      const char* base = block_.data();
      if (const void* nl = std::memchr(base + scanned, '\n', end_ - scanned)) {
        size_t at = static_cast<size_t>(static_cast<const char*>(nl) - base);
        *line = std::string_view(base + begin_, at - begin_);
        begin_ = at + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        *line = std::string_view(base + begin_, end_ - begin_);
        begin_ = end_;
        return true;
      }
      // The rest of the block is part of one line: move it to the front
      // and read more after it.
      size_t partial = end_ - begin_;
      std::memmove(block_.data(), base + begin_, partial);
      begin_ = 0;
      end_ = partial;
      scanned = partial;
      if (end_ == block_.size()) block_.resize(2 * block_.size());
      size_t got =
          std::fread(block_.data() + end_, 1, block_.size() - end_, file_);
      end_ += got;
      eof_ = got == 0;
    }
  }

 private:
  std::FILE* file_;
  std::vector<char> block_;
  size_t begin_ = 0;  ///< first byte of block_ not yet returned
  size_t end_ = 0;    ///< one past the last byte read into block_
  bool eof_ = false;
};

/// Splits on ',' keeping empty fields — including a trailing one, so a
/// stray trailing comma surfaces as a ragged row instead of silently
/// vanishing. `fields` is reused from row to row. Fields are short, so a
/// byte loop beats a memchr call per field.
void SplitLine(std::string_view line, std::vector<std::string_view>* fields) {
  fields->clear();
  const char* start = line.data();
  const char* end = start + line.size();
  for (const char* p = start; p != end; ++p) {
    if (*p == ',') {
      fields->emplace_back(start, static_cast<size_t>(p - start));
      start = p + 1;
    }
  }
  fields->emplace_back(start, static_cast<size_t>(end - start));
}

enum class NumericVerdict { kOk, kNonNumeric, kNonFinite };

/// Parses a numeric field with std::stod's verdict: the whole field must
/// parse to a finite value. std::from_chars decides a field it consumes
/// whole into 0 or a magnitude in [1e-300, 1e300], where the two agree bit
/// for bit. Every other field goes through stod itself, so a leading '+'
/// or whitespace, a hex float, a subnormal, underflow, overflow, inf and
/// nan keep the verdict they always had.
NumericVerdict ParseNumeric(std::string_view field, double* value) {
  double v = 0.0;
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec == std::errc() && ptr == end &&
      (v == 0.0 || (std::fabs(v) >= 1e-300 && std::fabs(v) <= 1e300))) {
    *value = v;
    return NumericVerdict::kOk;
  }
  std::string text(field);
  size_t parsed = 0;
  bool ok = false;
  try {
    v = std::stod(text, &parsed);
    ok = parsed == text.size();
  } catch (...) {
    ok = false;
  }
  if (!ok) return NumericVerdict::kNonNumeric;
  if (!std::isfinite(v)) return NumericVerdict::kNonFinite;
  *value = v;
  return NumericVerdict::kOk;
}

/// "path:line: " prefix every malformed-row message carries.
std::string RowContext(const std::string& path, size_t line_no) {
  return path + ":" + std::to_string(line_no) + ": ";
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  const Schema& schema = *dataset.schema();
  std::string row;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    row += schema.attribute(i).name;
    row += ',';
  }
  row += "class\n";
  out.write(row.data(), static_cast<std::streamsize>(row.size()));
  // Up to "-1.23457e+308": %.6g never needs more.
  char number[32];
  for (const Record& r : dataset.records()) {
    row.clear();
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const Attribute& attr = schema.attribute(i);
      if (attr.is_categorical()) {
        row += attr.categories[static_cast<size_t>(r.category(i))];
      } else {
        // printf's %.6g, which is what `ostream << double` writes at the
        // default precision.
        auto written = std::to_chars(number, number + sizeof(number),
                                     r.values[i],
                                     std::chars_format::general, 6);
        row.append(number, written.ptr);
      }
      row += ',';
    }
    if (r.is_labeled()) {
      row += schema.class_name(r.label);
    } else {
      row += '?';
    }
    row += '\n';
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<Dataset> ReadCsv(SchemaPtr schema, const std::string& path) {
  return ReadCsv(std::move(schema), path, CsvReadOptions{}, nullptr);
}

Result<Dataset> ReadCsv(SchemaPtr schema, const std::string& path,
                        const CsvReadOptions& options, CsvReadReport* report) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  Dataset dataset(schema);
  // Only imputation reads the sanitizer's statistics.
  const bool impute = options.policy == InputPolicy::kImputeMajority;
  InputSanitizer sanitizer(schema);
  CsvReadReport local_report;
  CsvReadReport* rep = report != nullptr ? report : &local_report;
  *rep = CsvReadReport{};

  LineReader lines(file.get());
  std::string_view line;
  if (!lines.Next(&line)) {
    return Status::IoError("'" + path + "' is empty (missing header)");
  }
  const std::vector<Attribute>& attributes = schema->attributes();
  const size_t num_attributes = attributes.size();
  std::vector<std::string_view> fields;
  size_t line_no = 1;
  while (lines.Next(&line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);  // CRLF
    if (line.empty()) continue;  // blank/trailing-newline lines
    ++rep->rows_read;

    SplitLine(line, &fields);
    // `row_error` carries the first defect; `repairable` says whether
    // imputation can keep the row (a wrong field count cannot be fixed).
    // Every field is still parsed after the first defect, so imputation
    // repairs them all.
    std::string row_error;
    bool repairable = true;
    Record record;
    if (fields.size() != num_attributes + 1) {
      row_error = RowContext(path, line_no) + "expected " +
                  std::to_string(num_attributes + 1) + " fields, got " +
                  std::to_string(fields.size());
      repairable = false;
    } else {
      record.values.reserve(num_attributes);
      for (size_t i = 0; i < num_attributes; ++i) {
        const Attribute& attr = attributes[i];
        std::string_view field = fields[i];
        // NaN marks a field the sanitizer must fill; Repair() replaces it
        // before anything casts it (the cast of a NaN is UB).
        double value = std::nan("");
        if (field.empty() || field == "?") {
          if (row_error.empty()) {
            row_error = RowContext(path, line_no) +
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
            row_error = RowContext(path, line_no) + "unknown category '" +
                        std::string(field) + "' for attribute '" + attr.name +
                        "'";
          }
        } else {
          NumericVerdict verdict = ParseNumeric(field, &value);
          if (verdict != NumericVerdict::kOk && row_error.empty()) {
            row_error = RowContext(path, line_no) +
                        (verdict == NumericVerdict::kNonNumeric
                             ? "non-numeric value '"
                             : "non-finite value '") +
                        std::string(field) + "'";
          }
        }
        record.values.push_back(value);
      }
      std::string_view label_field = fields.back();
      if (label_field == "?") {
        record.label = kUnlabeled;
      } else {
        auto label = schema->ClassIndex(label_field);
        if (label.ok()) {
          record.label = *label;
        } else {
          // -2: labeled-but-invalid, distinct from kUnlabeled so Repair()
          // knows to impute the majority class.
          record.label = -2;
          if (row_error.empty()) {
            row_error = RowContext(path, line_no) + "unknown class label '" +
                        std::string(label_field) + "'";
          }
        }
      }
    }

    if (row_error.empty()) {
      if (impute) sanitizer.Learn(record);
      // A clean row is valid by construction: it has the schema's arity,
      // and its categories and label came from the vocabularies.
      dataset.AppendUnchecked(std::move(record));
      ++rep->rows_kept;
      continue;
    }
    if (options.policy == InputPolicy::kError) {
      return Status::InvalidArgument(row_error);
    }
    if (rep->sample_errors.size() < options.max_sample_errors) {
      rep->sample_errors.push_back(row_error);
    }
    if (!repairable || !impute) {
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

}  // namespace hom
