#include "data/sanitize.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hom {

std::string_view InputPolicyName(InputPolicy policy) {
  switch (policy) {
    case InputPolicy::kError:
      return "error";
    case InputPolicy::kSkip:
      return "skip";
    case InputPolicy::kImputeMajority:
      return "impute-majority";
  }
  HOM_CHECK(false) << "unreachable";
  return "";
}

Result<InputPolicy> InputPolicyFromName(std::string_view name) {
  if (name == "error") return InputPolicy::kError;
  if (name == "skip") return InputPolicy::kSkip;
  if (name == "impute-majority") return InputPolicy::kImputeMajority;
  return Status::InvalidArgument(
      "unknown input policy '" + std::string(name) +
      "' (expected error, skip, or impute-majority)");
}

namespace {

/// A value is usable when it is finite and, for a categorical attribute,
/// encodes an index inside the vocabulary. `cardinality` 0 marks a numeric
/// attribute (a categorical one has at least two categories). Checked on
/// the double BEFORE any int cast: the cast of a NaN/out-of-range double
/// is undefined behaviour.
bool FieldOk(double v, size_t cardinality) {
  if (cardinality == 0) return std::isfinite(v);
  return std::isfinite(v) && v >= 0.0 &&
         v < static_cast<double>(cardinality) && v == std::floor(v);
}

bool LabelOk(Label label, size_t num_classes) {
  return label == kUnlabeled ||
         (label >= 0 && static_cast<size_t>(label) < num_classes);
}

/// Index of the most frequent entry; ties and all-zero counts resolve to
/// the lowest index so imputation is deterministic from the start.
size_t MajorityIndex(const std::vector<uint64_t>& counts) {
  return static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace

InputSanitizer::InputSanitizer(SchemaPtr schema)
    : schema_(std::move(schema)) {
  HOM_CHECK(schema_ != nullptr);
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

bool InputSanitizer::IsClean(const Record& r) const {
  const size_t n = category_counts_.size();
  if (r.values.size() != n) return false;
  const double* values = r.values.data();
  for (size_t i = 0; i < n; ++i) {
    if (!FieldOk(values[i], category_counts_[i].size())) return false;
  }
  return LabelOk(r.label, label_counts_.size());
}

void InputSanitizer::Learn(const Record& r) {
  HOM_DCHECK(IsClean(r));
  const size_t n = category_counts_.size();
  const double* values = r.values.data();
  for (size_t i = 0; i < n; ++i) {
    if (!category_counts_[i].empty()) {
      ++category_counts_[i][static_cast<size_t>(values[i])];
    } else {
      // Running mean, numerically stable for long streams.
      ++counts_[i];
      means_[i] += (values[i] - means_[i]) / static_cast<double>(counts_[i]);
    }
  }
  if (r.is_labeled()) ++label_counts_[static_cast<size_t>(r.label)];
}

namespace {

Status WriteU64Vector(BinaryWriter* writer, const std::vector<uint64_t>& v) {
  HOM_RETURN_NOT_OK(writer->WriteU32(static_cast<uint32_t>(v.size())));
  for (uint64_t x : v) HOM_RETURN_NOT_OK(writer->WriteU64(x));
  return Status::OK();
}

Result<std::vector<uint64_t>> ReadU64Vector(BinaryReader* reader,
                                            size_t expected) {
  HOM_ASSIGN_OR_RETURN(uint32_t size, reader->ReadU32());
  if (size != expected) {
    return Status::InvalidArgument(
        "sanitizer count vector sized " + std::to_string(size) +
        ", schema expects " + std::to_string(expected));
  }
  std::vector<uint64_t> v(size);
  for (uint64_t& x : v) {
    HOM_ASSIGN_OR_RETURN(x, reader->ReadU64());
  }
  return v;
}

}  // namespace

Status InputSanitizer::SaveTo(BinaryWriter* writer) const {
  HOM_RETURN_NOT_OK(writer->WriteDoubleVector(means_));
  HOM_RETURN_NOT_OK(WriteU64Vector(writer, counts_));
  for (const std::vector<uint64_t>& counts : category_counts_) {
    HOM_RETURN_NOT_OK(WriteU64Vector(writer, counts));
  }
  return WriteU64Vector(writer, label_counts_);
}

Status InputSanitizer::RestoreFrom(BinaryReader* reader) {
  size_t n = category_counts_.size();
  HOM_ASSIGN_OR_RETURN(std::vector<double> means, reader->ReadDoubleVector());
  if (means.size() != n) {
    return Status::InvalidArgument("sanitizer means arity mismatch");
  }
  for (double m : means) {
    if (!std::isfinite(m)) {
      return Status::InvalidArgument("sanitizer mean is not finite");
    }
  }
  HOM_ASSIGN_OR_RETURN(std::vector<uint64_t> counts,
                       ReadU64Vector(reader, n));
  std::vector<std::vector<uint64_t>> category_counts(n);
  for (size_t i = 0; i < n; ++i) {
    HOM_ASSIGN_OR_RETURN(
        category_counts[i],
        ReadU64Vector(reader, category_counts_[i].size()));
  }
  HOM_ASSIGN_OR_RETURN(std::vector<uint64_t> label_counts,
                       ReadU64Vector(reader, label_counts_.size()));
  means_ = std::move(means);
  counts_ = std::move(counts);
  category_counts_ = std::move(category_counts);
  label_counts_ = std::move(label_counts);
  return Status::OK();
}

InputSanitizer::Report InputSanitizer::Repair(Record* r) const {
  HOM_CHECK(r != nullptr);
  Report report;
  const size_t n = category_counts_.size();
  if (r->values.size() != n) {
    report.arity_ok = false;
    return report;
  }
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint64_t>& categories = category_counts_[i];
    if (FieldOk(r->values[i], categories.size())) continue;
    r->values[i] = categories.empty()
                       ? means_[i]
                       : static_cast<double>(MajorityIndex(categories));
    ++report.repaired_fields;
  }
  if (!LabelOk(r->label, label_counts_.size())) {
    r->label = static_cast<Label>(MajorityIndex(label_counts_));
    report.label_repaired = true;
  }
  return report;
}

}  // namespace hom
