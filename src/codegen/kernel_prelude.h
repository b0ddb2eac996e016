#ifndef SWOLE_CODEGEN_KERNEL_PRELUDE_H_
#define SWOLE_CODEGEN_KERNEL_PRELUDE_H_

// Everything a generated kernel includes: the generator emits this one
// header as the first line of code in every unit. The build precompiles it
// (src/CMakeLists.txt) under the JIT's default flags, and CompileKernel
// puts the precompiled copy in front of the source tree on the include path
// when a rung compiles with exactly those flags; otherwise, or when the
// compiler refuses the precompiled copy, this file is parsed as usual.

#include <cstdint>

#include "exec/hash_table.h"
#include "exec/kernels.h"
#include "storage/bitmap.h"

#endif  // SWOLE_CODEGEN_KERNEL_PRELUDE_H_
