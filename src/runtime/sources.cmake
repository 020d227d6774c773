tsm_module(runtime
    counterfactual.cc
    runtime.cc
    global_memory.cc
    machine.cc
)
