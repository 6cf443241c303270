// Refinement into a caller-owned coloring, for the search in canonical.cpp
// (internal to the iso library; refine() and refine_rounds() wrap it).
#pragma once

#include <cstddef>

#include "qelect/iso/refinement.hpp"

namespace qelect::iso::detail {

/// refine_rounds(g, c, max_rounds), written over c.  Once c and this
/// thread's refinement scratch have grown, it allocates nothing.
void refine_in_place(const ColoredDigraph& g, Coloring& c,
                     std::size_t max_rounds);

}  // namespace qelect::iso::detail
