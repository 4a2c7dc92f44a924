"""Desk-scale simulator for block-synchronized data-parallel training.

N simulated workers run mini-batch SGD with momentum on disjoint shards of a
synthetic sequence-classification corpus. At every block boundary the local
models are averaged (as whole vectors or shard by shard) and the global
model advances through a momentum-filtered update. Two shadow models, a
running mean and an exponential moving average of the global models, observe
every synchronization without ever being broadcast back, and compete with the
raw global model as the final deliverable.
"""

# every public name is declared once, in its module's __all__; the console
# script's module, cli, is not part of the library
from .cluster import *
from .data import *
from .experiment import *
from .metrics import *
from .models import *
from .numerics import *
from .optim import *
from .sync import *

__version__ = "0.1.0"
