#include "src/exp/record_codec.h"

#include <charconv>
#include <concepts>
#include <utility>
#include <vector>

#include "src/util/json.h"

namespace dibs {
namespace {

using json::Value;

// RunRecord, ScenarioResult and Summary: structs that list their fields
// through a static ForEachField, and travel as nested JSON objects.
template <typename T>
concept HasFieldList =
    requires(const T& t) { T::ForEachField(t, [](const char*, const auto&) {}); };

// Appends the JSON of each field type to `out`.
struct Writer {
  std::string& out;

  void Put(double v) { out += json::Num(v); }
  void Put(bool v) { out += v ? "true" : "false"; }
  template <std::integral T>
  void Put(T v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
  void Put(const std::string& s) { out.append(1, '"').append(json::Escape(s)).append(1, '"'); }
  void Put(RunStatus s) { out.append(1, '"').append(RunStatusName(s)).append(1, '"'); }
  // The axes, as an object in matrix axis order.
  void Put(const std::vector<AxisPoint>& points) {
    out += '{';
    for (size_t i = 0; i < points.size(); ++i) {
      out += i == 0 ? "" : ",";
      Put(points[i].axis);
      out += ':';
      Put(points[i].value);
    }
    out += '}';
  }
  // A monitor series.
  void Put(const std::vector<double>& series) {
    out += '[';
    for (size_t i = 0; i < series.size(); ++i) {
      out += i == 0 ? "" : ",";
      Put(series[i]);
    }
    out += ']';
  }
  // The per-reason drop table, {"queue-overflow":12,...} keyed by
  // DropReasonName with every reason present, so consumers never have to
  // guess which keys exist.
  void Put(const std::vector<uint64_t>& by_reason) {
    for (size_t i = 0; i < kNumDropReasons; ++i) {
      Key(i == 0, DropReasonName(static_cast<DropReason>(i)));
      Put(i < by_reason.size() ? by_reason[i] : uint64_t{0});
    }
    out += '}';
  }
  template <HasFieldList T>
  void Put(const T& object) {
    bool first = true;
    T::ForEachField(object, [&](const char* key, const auto& field) {
      Key(first, key);
      first = false;
      Put(field);
    });
    out += '}';
  }

  // `{"key":` opens an object; `,"key":` continues one.
  void Key(bool first, const char* key) {
    out.append(first ? "{\"" : ",\"").append(key).append("\":");
  }
};

// Reads each field type from member `key` of `obj`. An absent key leaves
// *out as it is; a key of the wrong type throws CodecError naming it.
struct Reader {
  const Value& obj;

  void Get(const char* key, double* out) { json::ReadDouble(obj, key, out); }
  void Get(const char* key, bool* out) { json::ReadBool(obj, key, out); }
  template <std::integral T>
  void Get(const char* key, T* out) {
    json::ReadInt(obj, key, out);
  }
  void Get(const char* key, std::string* out) { json::ReadString(obj, key, out); }
  void Get(const char* key, std::vector<double>* out) { json::ReadDoubleArray(obj, key, out); }
  void Get(const char* key, RunStatus* out) {
    std::string name = RunStatusName(*out);
    json::ReadString(obj, key, &name);
    for (const RunStatus s : {RunStatus::kOk, RunStatus::kFailed, RunStatus::kTimeout,
                              RunStatus::kCrashed}) {
      if (name == RunStatusName(s)) {
        *out = s;
        return;
      }
    }
    throw CodecError(key, "unknown status '" + name + "'");
  }
  // Parse keeps object members in document order, so the axes come back in
  // matrix order (FindRecord and CSV folding depend on it).
  void Get(const char* key, std::vector<AxisPoint>* out) {
    if (const Value* axes = Object(key); axes != nullptr) {
      out->clear();
      for (const auto& [name, value] : axes->fields) {
        if (value.kind != Value::Kind::kString) {
          throw CodecError(std::string(key) + "." + name, "expected string label");
        }
        out->push_back({name, value.text});
      }
    }
  }
  void Get(const char* key, std::vector<uint64_t>* out) {
    if (const Value* by_reason = Object(key); by_reason != nullptr) {
      out->assign(kNumDropReasons, 0);
      for (size_t i = 0; i < kNumDropReasons; ++i) {
        json::ReadInt(*by_reason, DropReasonName(static_cast<DropReason>(i)), &(*out)[i]);
      }
    }
  }
  template <HasFieldList T>
  void Get(const char* key, T* out) {
    if (const Value* v = Object(key); v != nullptr) {
      Reader{*v}.Fields(out);
    }
  }

  template <HasFieldList T>
  void Fields(T* out) {
    T::ForEachField(*out, [this](const char* key, auto& field) { Get(key, &field); });
  }
  // The object at `key`, or nullptr when the key is absent.
  const Value* Object(const char* key) {
    const Value* v = json::Find(obj, key);
    if (v != nullptr && v->kind != Value::Kind::kObject) {
      throw CodecError(key, "expected object");
    }
    return v;
  }
};

}  // namespace

std::string EncodeRunRecord(const RunRecord& r) {
  std::string out;
  out.reserve(2048);
  Writer{out}.Put(r);
  return out;
}

bool DecodeRunRecord(const std::string& line, RunRecord* record,
                     std::string* error) {
  Value root;
  if (!json::Parse(line, &root, error)) {
    return false;
  }
  if (root.kind != Value::Kind::kObject) {
    if (error != nullptr) {
      *error = "record is not a JSON object";
    }
    return false;
  }

  RunRecord r;
  try {
    Reader{root}.Fields(&r);
  } catch (const CodecError& e) {
    if (error != nullptr) {
      *error = e.what();
    }
    return false;
  }

  *record = std::move(r);
  return true;
}

}  // namespace dibs
