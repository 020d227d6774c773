tsm_module(telemetry
    contention.cc
    timeline.cc
    phase.cc
    render.cc
    progress.cc
)
