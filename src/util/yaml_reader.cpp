#include "util/yaml_reader.hpp"

#include <sstream>

#include "util/error.hpp"

namespace wasp::util::yaml {
namespace {

struct Line {
  int indent = 0;
  bool item = false;       // begins with "- "
  std::string key;         // empty for scalar sequence items
  std::string value;       // empty when the entry opens a nested block
  bool has_value = false;
};

std::string unquote(const std::string& v) {
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    std::string out;
    for (std::size_t i = 1; i + 1 < v.size(); ++i) {
      if (v[i] == '\\' && i + 2 < v.size()) {
        ++i;
        if (v[i] == 'n') {
          out += '\n';
          continue;
        }
      }
      out += v[i];
    }
    return out;
  }
  return v;
}

/// A scalar value as written on `raw`. The writer quotes every value with
/// a bracket or brace (util/yaml.cpp), so an unquoted one that starts with
/// '[' or '{' is flow syntax, which this block-only reader rejects.
std::string scalar_value(const std::string& v, const std::string& raw) {
  if (!v.empty() && (v.front() == '[' || v.front() == '{')) {
    throw SimError("unsupported flow-style YAML: " + raw);
  }
  return unquote(v);
}

std::vector<Line> tokenize(const std::string& text) {
  std::vector<Line> lines;
  std::istringstream is(text);
  std::string raw;
  while (std::getline(is, raw)) {
    std::size_t i = 0;
    while (i < raw.size() && raw[i] == ' ') ++i;
    if (i >= raw.size() || raw[i] == '#') continue;  // blank / comment
    Line line;
    line.indent = static_cast<int>(i);
    std::string body = raw.substr(i);
    if (body.rfind("- ", 0) == 0) {
      line.item = true;
      body = body.substr(2);
      line.indent += 2;  // content of an item aligns two columns deeper
    }
    // Split "key: value" / "key:" — a colon inside quotes is content.
    std::size_t colon = std::string::npos;
    bool in_quote = false;
    for (std::size_t c = 0; c < body.size(); ++c) {
      if (body[c] == '"') in_quote = !in_quote;
      if (!in_quote && body[c] == ':' &&
          (c + 1 == body.size() || body[c + 1] == ' ')) {
        colon = c;
        break;
      }
    }
    if (colon == std::string::npos) {
      WASP_CHECK_MSG(line.item, "unsupported YAML line: " + raw);
      line.value = scalar_value(body, raw);
      line.has_value = true;
    } else {
      line.key = body.substr(0, colon);
      std::string rest =
          colon + 1 < body.size() ? body.substr(colon + 2) : "";
      if (!rest.empty()) {
        line.value = scalar_value(rest, raw);
        line.has_value = true;
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

class Parser {
 public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Node parse_document() {
    if (lines_.empty()) return Node::make_map();
    Node root = parse_block(lines_.front().indent);
    WASP_CHECK_MSG(pos_ == lines_.size(), "trailing unparsed YAML lines");
    return root;
  }

 private:
  bool at_end() const { return pos_ >= lines_.size(); }
  const Line& cur() const { return lines_[pos_]; }

  Node parse_block(int indent) {
    WASP_CHECK_MSG(!at_end(), "empty YAML block");
    return cur().item ? parse_seq(indent) : parse_map(indent);
  }

  Node parse_map(int indent) {
    Node node = Node::make_map();
    while (!at_end() && cur().indent == indent && !cur().item) {
      const Line line = cur();
      ++pos_;
      if (line.has_value) {
        node.add_entry(line.key, Node::make_scalar(line.value));
      } else if (!at_end() && cur().indent > indent) {
        node.add_entry(line.key, parse_block(cur().indent));
      } else {
        node.add_entry(line.key, Node::make_map());  // empty block
      }
    }
    return node;
  }

  Node parse_seq(int indent) {
    Node node = Node::make_seq();
    while (!at_end() && cur().item && cur().indent == indent) {
      const Line first = cur();
      ++pos_;
      if (first.key.empty()) {
        node.add_item(Node::make_scalar(first.value));
        continue;
      }
      // A sequence item that is a map: the dash line carries its first
      // entry; further entries continue at the same (content) indent.
      Node item = Node::make_map();
      if (first.has_value) {
        item.add_entry(first.key, Node::make_scalar(first.value));
      } else if (!at_end() && cur().indent > indent) {
        item.add_entry(first.key, parse_block(cur().indent));
      } else {
        item.add_entry(first.key, Node::make_map());
      }
      while (!at_end() && !cur().item && cur().indent == indent) {
        const Line line = cur();
        ++pos_;
        if (line.has_value) {
          item.add_entry(line.key, Node::make_scalar(line.value));
        } else if (!at_end() && cur().indent > indent) {
          item.add_entry(line.key, parse_block(cur().indent));
        } else {
          item.add_entry(line.key, Node::make_map());
        }
      }
      node.add_item(std::move(item));
    }
    return node;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

const std::string& Node::scalar() const {
  WASP_CHECK_MSG(kind_ == Kind::kScalar, "YAML node is not a scalar");
  return scalar_;
}

const Node* Node::find(const std::string& key) const {
  for (const auto& [k, v] : map_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Node::get(const std::string& key,
                      const std::string& fallback) const {
  const Node* n = find(key);
  return n != nullptr && n->is_scalar() ? n->scalar() : fallback;
}

Node Node::make_scalar(std::string value) {
  Node n;
  n.kind_ = Kind::kScalar;
  n.scalar_ = std::move(value);
  return n;
}

Node Node::make_map() {
  Node n;
  n.kind_ = Kind::kMap;
  return n;
}

Node Node::make_seq() {
  Node n;
  n.kind_ = Kind::kSeq;
  return n;
}

Node& Node::add_entry(const std::string& key, Node value) {
  WASP_CHECK(kind_ == Kind::kMap);
  map_.emplace_back(key, std::move(value));
  return map_.back().second;
}

Node& Node::add_item(Node value) {
  WASP_CHECK(kind_ == Kind::kSeq);
  seq_.push_back(std::move(value));
  return seq_.back();
}

Node parse(const std::string& text) {
  return Parser(tokenize(text)).parse_document();
}

}  // namespace wasp::util::yaml
