#include "src/trace/trace_codec.h"

#include <cstdint>
#include <cstring>
#include <limits>

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

void SkipSpace(const char*& p) {
  while (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n') {
    ++p;
  }
}

bool ParseQuoted(const char*& p, std::string* out) {
  if (*p != '"') {
    return false;
  }
  ++p;
  out->clear();
  while (*p != '"') {
    if (*p == '\0' || *p == '\\') {
      return false;  // encoded strings never contain escapes
    }
    out->push_back(*p++);
  }
  ++p;
  return true;
}

// One decimal integer as a sign and a 64-bit magnitude; false when there are
// no digits or the magnitude overflows.
bool ParseInt(const char*& p, bool* neg, uint64_t* mag) {
  *neg = *p == '-';
  if (*neg) {
    ++p;
  }
  if (*p < '0' || *p > '9') {
    return false;
  }
  uint64_t v = 0;
  while (*p >= '0' && *p <= '9') {
    const auto digit = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
    ++p;
  }
  *mag = v;
  return true;
}

// Stores the parsed integer in `field` if it fits the field's type; an
// out-of-range value rejects the line instead of wrapping.
template <typename T>
bool Store(bool neg, uint64_t mag, T* field) {
  using Limits = std::numeric_limits<T>;
  if (neg && mag != 0) {
    if (!Limits::is_signed || mag > 0 - static_cast<uint64_t>(Limits::min())) {
      return false;
    }
    *field = static_cast<T>(0 - mag);  // two's complement: exact down to min()
    return true;
  }
  if (mag > static_cast<uint64_t>(Limits::max())) {
    return false;
  }
  *field = static_cast<T>(mag);
  return true;
}

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

uint8_t DropReasonFromName(const std::string& name) {
  for (size_t i = 0; i < kNumDropReasons; ++i) {
    if (name == DropReasonName(static_cast<DropReason>(i))) {
      return static_cast<uint8_t>(i);
    }
  }
  return kTraceEvictionReason;  // "pfabric-eviction" (or unknown) maps here
}

}  // namespace

bool DecodeTraceEvent(const std::string& line, TraceEvent* out) {
  *out = TraceEvent{};
  const char* p = line.c_str();
  SkipSpace(p);
  if (*p != '{') {
    return false;
  }
  ++p;
  std::string key;
  std::string sval;
  bool first = true;
  for (;;) {
    SkipSpace(p);
    if (*p == '}') {
      ++p;
      break;
    }
    if (!first) {
      if (*p != ',') {
        return false;
      }
      ++p;
      SkipSpace(p);
    }
    first = false;
    if (!ParseQuoted(p, &key)) {
      return false;
    }
    SkipSpace(p);
    if (*p != ':') {
      return false;
    }
    ++p;
    SkipSpace(p);
    if (*p == '"') {
      if (!ParseQuoted(p, &sval)) {
        return false;
      }
      if (key == "ev") {
        if (!EventTypeFromName(sval, &out->type)) {
          return false;
        }
      } else if (key == "reason" && !sval.empty()) {
        out->drop_reason = DropReasonFromName(sval);
      }
      continue;
    }
    bool neg = false;
    uint64_t mag = 0;
    if (!ParseInt(p, &neg, &mag)) {
      return false;
    }
    bool fits = true;
    if (key == "t") {
      int64_t nanos = 0;
      fits = Store(neg, mag, &nanos);
      out->at = Time::Nanos(nanos);
    } else if (key == "node") {
      fits = Store(neg, mag, &out->node);
    } else if (key == "port") {
      fits = Store(neg, mag, &out->port);
    } else if (key == "uid") {
      fits = Store(neg, mag, &out->uid);
    } else if (key == "flow") {
      fits = Store(neg, mag, &out->flow);
    } else if (key == "src") {
      fits = Store(neg, mag, &out->src);
    } else if (key == "dst") {
      fits = Store(neg, mag, &out->dst);
    } else if (key == "seq") {
      fits = Store(neg, mag, &out->seq);
    } else if (key == "ack") {
      fits = Store(neg, mag, &out->is_ack);
    } else if (key == "ttl") {
      fits = Store(neg, mag, &out->ttl);
    } else if (key == "tc") {
      fits = Store(neg, mag, &out->tclass);
    } else if (key == "det") {
      fits = Store(neg, mag, &out->detour_count);
    } else if (key == "depth") {
      fits = Store(neg, mag, &out->queue_depth);
    }
    if (!fits) {
      return false;
    }
  }
  SkipSpace(p);
  return *p == '\0';
}

}  // namespace dibs
