// Human-readable packet diagnostics for validation failures and logging.
//
// DescribePacket renders every header field the forwarding path reads. For
// the packet's full hop-by-hop history, run with tracing enabled and use the
// flight-recorder dump (src/trace/) — a DIBS_VALIDATE violation or crash
// leaves the last N network events on disk, keyed by the uid printed here.

#ifndef SRC_NET_PACKET_DEBUG_H_
#define SRC_NET_PACKET_DEBUG_H_

#include <sstream>
#include <string>

#include "src/net/packet.h"

namespace dibs {

inline std::string DescribePacket(const Packet& p) {
  std::ostringstream os;
  os << "packet{uid=" << p.uid << " flow=" << p.flow << " " << p.src << "->" << p.dst
     << " size=" << p.size_bytes << "B ttl=" << static_cast<int>(p.ttl)
     << " detours=" << p.detour_count << (p.is_ack ? " ack=" : " seq=")
     << (p.is_ack ? p.ack_seq : p.seq);
  if (p.ect) {
    os << (p.ce ? " ect+ce" : " ect");
  }
  if (p.fin) {
    os << " fin";
  }
  os << "}";
  return os.str();
}

}  // namespace dibs

#endif  // SRC_NET_PACKET_DEBUG_H_
