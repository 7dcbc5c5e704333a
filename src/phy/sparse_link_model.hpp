// SparseLinkModel, the culling link-model builder, is declared in
// phy/link_model.hpp beside CachedLinkModel, which is the same builder with
// culling disabled. This header is kept for the code that includes it by
// this name.
#pragma once

#include "phy/link_model.hpp"
