#ifndef HOM_DATA_SCHEMA_H_
#define HOM_DATA_SCHEMA_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "data/attribute.h"

namespace hom {

/// \brief Immutable description of a labeled tabular stream: feature columns
/// plus the class-label vocabulary.
///
/// Schemas are shared (via shared_ptr) between the datasets, views, and
/// classifiers that operate on the same stream.
class Schema {
 public:
  /// Validates and builds a schema. Fails if there are no attributes, fewer
  /// than two classes, a categorical attribute with fewer than two
  /// categories, or duplicate attribute names.
  static Result<std::shared_ptr<const Schema>> Make(
      std::vector<Attribute> attributes, std::vector<std::string> classes);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const {
    HOM_CHECK_LT(i, attributes_.size());
    return attributes_[i];
  }

  size_t num_classes() const { return classes_.size(); }
  const std::string& class_name(int label) const;

  /// Index of the class with the given name, or NotFound.
  Result<int> ClassIndex(std::string_view name) const;

  /// Index of the attribute with the given name, or NotFound.
  Result<size_t> AttributeIndex(const std::string& name) const;

  const std::vector<Attribute>& attributes() const { return attributes_; }
  const std::vector<std::string>& classes() const { return classes_; }

  /// Human-readable one-line summary ("3 attrs (0 numeric, 3 categorical), 2 classes").
  std::string ToString() const;

 private:
  Schema(std::vector<Attribute> attributes, std::vector<std::string> classes)
      : attributes_(std::move(attributes)), classes_(std::move(classes)) {}

  std::vector<Attribute> attributes_;
  std::vector<std::string> classes_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

}  // namespace hom

#endif  // HOM_DATA_SCHEMA_H_
