#include "sim/arrival_queue.h"

#include <stdexcept>

namespace volcast::sim {

void ArrivalQueue::push(const Arrival& arrival) {
  if (arrival.at < now_)
    throw std::invalid_argument("ArrivalQueue: arrival in the past");
  arrivals_.push(Entry{arrival, next_seq_++});
}

}  // namespace volcast::sim
