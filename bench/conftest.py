"""Lets ``python -m pytest bench -q`` import the harness modules and
the checkout's ``repro`` the way ``run.py`` does."""

import envpin

envpin.use_checkout_source()
