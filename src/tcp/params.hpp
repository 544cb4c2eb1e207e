// Tunable parameters of the TCP model. The fixed ones (MSS, initial window,
// RTO ladder and retry budgets, ACK timing, DUPACK threshold) are constants
// in connection.cpp.
#pragma once

#include <cstdint>

namespace wp2p::tcp {

struct TcpParams {
  std::int64_t rwnd = 256 * 1024;  // static receive window, bytes

  // TEST ONLY. Deliberately removes the 1-MSS congestion-window floor (RTO
  // collapses to half an MSS, partial-ACK deflation may go negative) so the
  // fuzz harness can prove that the trace invariant checker catches a broken
  // protocol and that shrinking converges on a minimal failing schedule.
  // Never set this outside harness self-tests.
  bool unsafe_no_cwnd_floor = false;
};

}  // namespace wp2p::tcp
