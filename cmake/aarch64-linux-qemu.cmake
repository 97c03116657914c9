# Cross toolchain for the qemu-aarch64 CI leg: builds the whole tree with
# the Debian/Ubuntu aarch64 cross compiler and registers qemu-user as the
# test-run emulator, so `ctest` executes the NEON kernel tables (sub-byte
# unpack, Q31 requantize epilogues, the sdot GEMM generation) that x86 legs
# can never reach. qemu's default CPU model ("max") exposes the dotprod
# hwcap, so cpu_features' getauxval probe selects the sdot table at runtime.
set(CMAKE_SYSTEM_NAME Linux)
set(CMAKE_SYSTEM_PROCESSOR aarch64)

set(CMAKE_C_COMPILER aarch64-linux-gnu-gcc)
set(CMAKE_CXX_COMPILER aarch64-linux-gnu-g++)

set(CMAKE_FIND_ROOT_PATH /usr/aarch64-linux-gnu)
set(CMAKE_FIND_ROOT_PATH_MODE_PROGRAM NEVER)
set(CMAKE_FIND_ROOT_PATH_MODE_LIBRARY ONLY)
set(CMAKE_FIND_ROOT_PATH_MODE_INCLUDE ONLY)
set(CMAKE_FIND_ROOT_PATH_MODE_PACKAGE ONLY)

# -L points qemu's ELF loader at the cross sysroot for the dynamic linker
# and libstdc++.
set(CMAKE_CROSSCOMPILING_EMULATOR "qemu-aarch64;-L;/usr/aarch64-linux-gnu")
