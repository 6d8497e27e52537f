#ifndef HOM_DATA_SANITIZE_H_
#define HOM_DATA_SANITIZE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "data/record.h"
#include "data/schema.h"

namespace hom {

/// What to do with a malformed input record (missing value, non-finite
/// number, out-of-vocabulary category, out-of-range label).
enum class InputPolicy : uint8_t {
  kError = 0,        ///< surface an error Status (strict ingest)
  kSkip,             ///< drop the record, count it, keep serving
  kImputeMajority,   ///< repair the record from running statistics
};

/// Stable wire/CLI name: "error", "skip", "impute-majority".
std::string_view InputPolicyName(InputPolicy policy);

/// Inverse of InputPolicyName; error Status on unknown names.
Result<InputPolicy> InputPolicyFromName(std::string_view name);

/// \brief Malformed-input repair for the online phase: validates records
/// against a schema and, when the policy allows, repairs bad fields from
/// statistics learned over the clean records seen so far.
///
/// A missing value is represented as NaN in Record::values (records store
/// doubles for both attribute kinds). Repair happens BEFORE a value is
/// interpreted — in particular before any categorical cast, since
/// `static_cast<int>(NaN)` is undefined behaviour. Numeric fields impute
/// the running mean; categorical fields and labels impute the majority
/// value (ties break toward the lower index; before any clean record has
/// been seen the fallbacks are 0.0 / category 0 / class 0).
class InputSanitizer {
 public:
  /// Outcome of one Repair() pass.
  struct Report {
    /// False when the record has the wrong number of values — that cannot
    /// be repaired, only rejected; the record is left untouched.
    bool arity_ok = true;
    /// Attribute values replaced (missing, non-finite, out of vocabulary).
    size_t repaired_fields = 0;
    /// True when an out-of-range label was replaced by the majority class.
    bool label_repaired = false;

    bool was_clean() const {
      return arity_ok && repaired_fields == 0 && !label_repaired;
    }
  };

  explicit InputSanitizer(SchemaPtr schema);

  /// True when `r` conforms to the schema: right arity, finite numerics,
  /// in-vocabulary categoricals, label in range (kUnlabeled is fine).
  bool IsClean(const Record& r) const;

  /// Folds one clean record into the imputation statistics (running mean
  /// per numeric attribute, category/label frequencies). Call only with
  /// records IsClean() accepts.
  void Learn(const Record& r);

  /// Repairs `r` in place and reports what changed. Arity mismatches are
  /// not repairable: the report's arity_ok is false and `r` is untouched.
  Report Repair(Record* r) const;

  /// Serializes the imputation statistics so a serving checkpoint can
  /// resume them (highorder/checkpoint.h).
  Status SaveTo(BinaryWriter* writer) const;

  /// Restores statistics written by SaveTo. Vector sizes must match this
  /// sanitizer's schema and means must be finite; a corrupt payload is
  /// rejected with an error Status, leaving the statistics untouched.
  Status RestoreFrom(BinaryReader* reader);

  const SchemaPtr& schema() const { return schema_; }

 private:
  SchemaPtr schema_;
  /// Running mean per attribute (used for numeric imputation).
  std::vector<double> means_;
  std::vector<uint64_t> counts_;
  /// Per categorical attribute: observed frequency of each category. Empty
  /// for a numeric attribute, so each size is the attribute's cardinality
  /// (0 = numeric) and the per-record checks need not ask the schema.
  std::vector<std::vector<uint64_t>> category_counts_;
  /// Observed frequency of each class label; its size is the class count.
  std::vector<uint64_t> label_counts_;
};

}  // namespace hom

#endif  // HOM_DATA_SANITIZE_H_
