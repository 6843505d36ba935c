// SHJ states are header-only templates; this translation unit type-checks
// the header standalone and pins every table × tracer instantiation.
#include "src/join/shj.h"

namespace iawj {

template class ShjState<NullTracer, BucketChainTable<NullTracer>>;
template class ShjState<SimTracer, BucketChainTable<SimTracer>>;
template class ShjState<NullTracer, LinearProbeTable<NullTracer>>;
template class ShjState<SimTracer, LinearProbeTable<SimTracer>>;
template class ShjState<NullTracer, PointerBucketChainTable<NullTracer>>;
template class ShjState<SimTracer, PointerBucketChainTable<SimTracer>>;

}  // namespace iawj
