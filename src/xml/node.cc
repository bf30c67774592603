#include "xml/node.h"

namespace hopi::xml {

const std::string* Element::FindAttribute(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

Element* Element::AddChild(std::unique_ptr<Element> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

Element::~Element() {
  // Detach every descendant onto one flat list before it dies, so each
  // destructor below runs on an element with no children left.
  std::vector<std::unique_ptr<Element>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<Element> e = std::move(pending.back());
    pending.pop_back();
    for (auto& c : e->children_) pending.push_back(std::move(c));
    e->children_.clear();
  }
}

size_t Element::SubtreeSize() const {
  size_t n = 0;
  Visit([&n](const Element&) { ++n; });
  return n;
}

}  // namespace hopi::xml
