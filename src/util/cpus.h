// The number of CPUs this process may run on.
#ifndef LSD_UTIL_CPUS_H_
#define LSD_UTIL_CPUS_H_

namespace lsd {

// CPUs in the calling thread's affinity mask (at least 1). Unlike
// std::thread::hardware_concurrency, which counts every online CPU, this
// honours taskset/cgroup pinning, so a process pinned to 3 of 4 CPUs
// sizes its worker fan-out to 3. Falls back to hardware_concurrency when
// the mask cannot be read.
unsigned UsableCpus();

}  // namespace lsd

#endif  // LSD_UTIL_CPUS_H_
