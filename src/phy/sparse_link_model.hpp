// SparseLinkModel, the one link-model builder, is declared in
// phy/link_model.hpp. This header is kept for the code that includes it by
// this name.
#pragma once

#include "phy/link_model.hpp"
