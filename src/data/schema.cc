#include "data/schema.h"

#include <sstream>
#include <unordered_set>

#include "common/check.h"

namespace hom {

Result<std::shared_ptr<const Schema>> Schema::Make(
    std::vector<Attribute> attributes, std::vector<std::string> classes) {
  if (attributes.empty()) {
    return Status::InvalidArgument("schema needs at least one attribute");
  }
  if (classes.size() < 2) {
    return Status::InvalidArgument("schema needs at least two classes");
  }
  std::unordered_set<std::string> names;
  for (const Attribute& attr : attributes) {
    if (attr.is_categorical() && attr.cardinality() < 2) {
      return Status::InvalidArgument("categorical attribute '" + attr.name +
                                     "' needs at least two categories");
    }
    if (!names.insert(attr.name).second) {
      return Status::InvalidArgument("duplicate attribute name '" +
                                     attr.name + "'");
    }
  }
  std::unordered_set<std::string> class_names(classes.begin(), classes.end());
  if (class_names.size() != classes.size()) {
    return Status::InvalidArgument("duplicate class name");
  }
  return std::shared_ptr<const Schema>(
      new Schema(std::move(attributes), std::move(classes)));
}

const std::string& Schema::class_name(int label) const {
  HOM_CHECK_GE(label, 0);
  HOM_CHECK_LT(static_cast<size_t>(label), classes_.size());
  return classes_[static_cast<size_t>(label)];
}

Result<int> Schema::ClassIndex(std::string_view name) const {
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i] == name) return static_cast<int>(i);
  }
  return Status::NotFound("class '" + std::string(name) + "' not in schema");
}

Result<size_t> Schema::AttributeIndex(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("attribute '" + name + "' not in schema");
}

std::string Schema::ToString() const {
  size_t numeric = 0;
  for (const Attribute& a : attributes_) {
    if (a.is_numeric()) ++numeric;
  }
  std::ostringstream out;
  out << attributes_.size() << " attrs (" << numeric << " numeric, "
      << (attributes_.size() - numeric) << " categorical), "
      << classes_.size() << " classes";
  return out.str();
}

}  // namespace hom
