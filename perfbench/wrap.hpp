// Shared by the wrapper files. With `-Wl,--wrap=S` the linker sends every
// cross-object reference to S to `__wrap_S`, and `__real_S` to the original.
// Calls made inside S's own translation unit (or inlined there) are not
// redirected, so each wrapper sits on an entry that other files call.
#pragma once

#include "probe.hpp"

#define REAL(sym) asm("__real_" #sym)
#define WRAP(sym) asm("__wrap_" #sym)
