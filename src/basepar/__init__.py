"""Base-parallel ramp-metering control on a cell-transmission highway model.

Offline-tuned base controllers and budgeted online MPC controllers run side
by side; every candidate metering plan is scored on a plant-model rollout
and the cheapest one is applied each control step.
"""
