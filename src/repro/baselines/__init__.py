"""``repro.baselines`` — state-of-the-art localizers CALLOC is compared against.

Includes the classical models used in Fig. 1 (KNN, GPC, DNN) and the
advanced frameworks of the Fig. 6/7 comparison (AdvLoc, SANGRIA, ANVIL,
WiDeep), plus the substrates they need (gradient-boosted trees and
autoencoders).  ``repro.registry.LOCALIZERS.create`` builds any of them by
name.
"""

from ..interfaces import DifferentiableLocalizer, Localizer
from .advloc import AdvLocLocalizer
from .anvil import ANVILLocalizer
from .autoencoder import DenoisingAutoencoder, StackedAutoencoder
from .cnn import CNNLocalizer
from .dnn import DNNLocalizer
from .gbdt import DecisionTreeRegressor, GradientBoostedClassifier
from .gpc import GaussianProcessLocalizer
from .knn import KNNLocalizer
from .naive_bayes import NaiveBayesLocalizer
from .neural import NeuralNetworkLocalizer
from .sangria import SANGRIALocalizer
from .wideep import WiDeepLocalizer

__all__ = [
    "Localizer",
    "DifferentiableLocalizer",
    "KNNLocalizer",
    "NaiveBayesLocalizer",
    "GaussianProcessLocalizer",
    "DNNLocalizer",
    "CNNLocalizer",
    "AdvLocLocalizer",
    "ANVILLocalizer",
    "SANGRIALocalizer",
    "WiDeepLocalizer",
    "NeuralNetworkLocalizer",
    "StackedAutoencoder",
    "DenoisingAutoencoder",
    "DecisionTreeRegressor",
    "GradientBoostedClassifier",
]
