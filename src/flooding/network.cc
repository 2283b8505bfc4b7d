#include "flooding/network.h"

namespace lhg::flooding {

// The materialized-overlay network is the library's workhorse; one
// explicit instantiation here keeps every other TU's compile cost flat.
template class FaultModel<Network, core::Graph>;
template class BasicNetwork<core::Graph>;

}  // namespace lhg::flooding
