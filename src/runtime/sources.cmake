tsm_module(runtime
    counterfactual.cc
    system.cc
    runtime.cc
    global_memory.cc
    machine.cc
)
