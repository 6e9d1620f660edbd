#include "src/chaos/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/chaos/spec_codec.h"
#include "src/util/atomic_file.h"
#include "src/util/json.h"

namespace dibs::chaos {

std::string EncodeCorpusEntry(const CorpusEntry& entry) {
  std::ostringstream os;
  os << "{\n"
     << "  \"oracle\": \"" << json::Escape(entry.oracle) << "\",\n"
     << "  \"detail\": \"" << json::Escape(entry.detail) << "\",\n"
     << "  \"master_seed\": " << entry.master_seed << ",\n"
     << "  \"found_case\": " << entry.found_case << ",\n"
     << "  \"repro\": \"dibs_fuzz replay <this file>\",\n"
     << "  \"spec\": " << EncodeChaosSpec(entry.spec) << "\n"
     << "}\n";
  return os.str();
}

CorpusEntry DecodeCorpusEntry(const std::string& text) {
  json::Value root;
  std::string error;
  if (!json::Parse(text, &root, &error)) {
    throw CodecError("corpus entry", error);
  }
  if (root.kind != json::Value::Kind::kObject) {
    throw CodecError("corpus entry", "not a JSON object");
  }
  CorpusEntry entry;
  json::ReadString(root, "oracle", &entry.oracle);
  if (entry.oracle.empty()) {
    throw CodecError("oracle", "corpus entry is missing its failing oracle");
  }
  json::ReadString(root, "detail", &entry.detail);
  json::ReadInt(root, "master_seed", &entry.master_seed);
  json::ReadInt(root, "found_case", &entry.found_case);
  const json::Value* spec = json::Find(root, "spec");
  if (spec == nullptr) {
    throw CodecError("spec", "corpus entry is missing its spec");
  }
  entry.spec = DecodeChaosSpec(*spec);  // full envelope checks apply
  return entry;
}

std::string WriteCorpusEntry(const std::string& dir, const std::string& name,
                             const CorpusEntry& entry) {
  const std::string path = dir + "/" + name + ".json";
  // Durable replace (temp + fsync + rename): a corpus entry is written at
  // the exact moment something is crashing — a torn entry that poisons the
  // next replay would defeat its purpose.
  std::string error;
  if (!WriteFileDurable(path, EncodeCorpusEntry(entry), &error)) {
    throw std::runtime_error("cannot write corpus entry: " + error);
  }
  return path;
}

CorpusEntry ReadCorpusEntry(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read corpus entry: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return DecodeCorpusEntry(buf.str());
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    if (de.path().extension() == ".json") {
      paths.push_back(de.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

OracleVerdict ReplayEntry(const CorpusEntry& entry,
                          const OracleOptions& options) {
  return CheckOracle(entry.spec, entry.oracle, options);
}

}  // namespace dibs::chaos
