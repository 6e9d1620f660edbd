#include "src/trace/trace_codec.h"

#include <cstdint>
#include <cstring>

#include "src/util/json.h"

namespace dibs {
namespace {

// All Append* helpers are async-signal-safe: fixed-size stack state, no
// allocation, no errno use. `pos` may run past `cap`; callers clamp once at
// the end, so intermediate arithmetic never writes out of bounds.
size_t AppendRaw(char* buf, size_t cap, size_t pos, const char* s, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (pos + i < cap) {
      buf[pos + i] = s[i];
    }
  }
  return pos + len;
}

size_t AppendStr(char* buf, size_t cap, size_t pos, const char* s) {
  return AppendRaw(buf, cap, pos, s, std::strlen(s));
}

size_t AppendUint(char* buf, size_t cap, size_t pos, uint64_t v) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) {
    --n;
    if (pos < cap) {
      buf[pos] = digits[n];
    }
    ++pos;
  }
  return pos;
}

size_t AppendInt(char* buf, size_t cap, size_t pos, int64_t v) {
  if (v < 0) {
    pos = AppendRaw(buf, cap, pos, "-", 1);
    return AppendUint(buf, cap, pos, static_cast<uint64_t>(-(v + 1)) + 1);
  }
  return AppendUint(buf, cap, pos, static_cast<uint64_t>(v));
}

size_t AppendKeyInt(char* buf, size_t cap, size_t pos, const char* key, int64_t v) {
  pos = AppendStr(buf, cap, pos, ",\"");
  pos = AppendStr(buf, cap, pos, key);
  pos = AppendStr(buf, cap, pos, "\":");
  return AppendInt(buf, cap, pos, v);
}

size_t AppendKeyUint(char* buf, size_t cap, size_t pos, const char* key, uint64_t v) {
  pos = AppendStr(buf, cap, pos, ",\"");
  pos = AppendStr(buf, cap, pos, key);
  pos = AppendStr(buf, cap, pos, "\":");
  return AppendUint(buf, cap, pos, v);
}

}  // namespace

size_t EncodeTraceEventLine(const TraceEvent& e, char* buf, size_t cap) {
  size_t pos = 0;
  pos = AppendStr(buf, cap, pos, "{\"t\":");
  pos = AppendInt(buf, cap, pos, e.at.nanos());
  pos = AppendStr(buf, cap, pos, ",\"ev\":\"");
  pos = AppendStr(buf, cap, pos, TraceEventTypeName(e.type));
  pos = AppendStr(buf, cap, pos, "\"");
  pos = AppendKeyInt(buf, cap, pos, "node", e.node);
  pos = AppendKeyInt(buf, cap, pos, "port", e.port);
  pos = AppendKeyUint(buf, cap, pos, "uid", e.uid);
  pos = AppendKeyUint(buf, cap, pos, "flow", e.flow);
  pos = AppendKeyInt(buf, cap, pos, "src", e.src);
  pos = AppendKeyInt(buf, cap, pos, "dst", e.dst);
  pos = AppendKeyUint(buf, cap, pos, "seq", e.seq);
  pos = AppendKeyUint(buf, cap, pos, "ack", e.is_ack ? 1 : 0);
  pos = AppendKeyUint(buf, cap, pos, "ttl", e.ttl);
  pos = AppendKeyUint(buf, cap, pos, "tc", e.tclass);
  pos = AppendKeyUint(buf, cap, pos, "det", e.detour_count);
  pos = AppendKeyInt(buf, cap, pos, "depth", e.queue_depth);
  pos = AppendStr(buf, cap, pos, ",\"reason\":\"");
  if (e.type == TraceEventType::kDrop) {
    pos = AppendStr(buf, cap, pos, TraceDropReasonName(e.drop_reason));
  }
  pos = AppendStr(buf, cap, pos, "\"}\n");
  if (pos > cap) {
    pos = cap;
  }
  if (pos > 0) {
    buf[pos - 1] = '\n';
  }
  return pos;
}

std::string EncodeTraceEvent(const TraceEvent& e) {
  char buf[kMaxTraceLineBytes];
  const size_t n = EncodeTraceEventLine(e, buf, sizeof buf);
  return std::string(buf, n > 0 ? n - 1 : 0);  // strip the newline
}

namespace {

bool EventTypeFromName(const std::string& name, TraceEventType* out) {
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventType t = static_cast<TraceEventType>(i);
    if (name == TraceEventTypeName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

bool DropReasonFromName(const std::string& name, uint8_t* out) {
  if (name == TraceDropReasonName(kTraceEvictionReason)) {
    *out = kTraceEvictionReason;
    return true;
  }
  for (size_t i = 0; i < kNumDropReasons; ++i) {
    if (name == DropReasonName(static_cast<DropReason>(i))) {
      *out = static_cast<uint8_t>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

bool DecodeTraceEvent(const std::string& line, TraceEvent* out) {
  *out = TraceEvent{};
  json::Value root;
  if (!json::Parse(line, &root, nullptr)) {
    return false;
  }
  try {
    std::string name;
    std::string reason;
    json::ReadString(root, "ev", &name);
    json::ReadString(root, "reason", &reason);
    if (!EventTypeFromName(name, &out->type) ||
        (!reason.empty() && !DropReasonFromName(reason, &out->drop_reason))) {
      return false;
    }
    int64_t nanos = out->at.nanos();
    json::ReadInt(root, "t", &nanos);
    out->at = Time::Nanos(nanos);
    json::ReadInt(root, "node", &out->node);
    json::ReadInt(root, "port", &out->port);
    json::ReadInt(root, "uid", &out->uid);
    json::ReadInt(root, "flow", &out->flow);
    json::ReadInt(root, "src", &out->src);
    json::ReadInt(root, "dst", &out->dst);
    json::ReadInt(root, "seq", &out->seq);
    json::ReadInt(root, "ack", &out->is_ack);
    json::ReadInt(root, "ttl", &out->ttl);
    json::ReadInt(root, "tc", &out->tclass);
    json::ReadInt(root, "det", &out->detour_count);
    json::ReadInt(root, "depth", &out->queue_depth);
  } catch (const CodecError&) {
    return false;
  }
  return true;
}

}  // namespace dibs
